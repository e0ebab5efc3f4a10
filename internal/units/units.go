// Package units defines the physical quantities used throughout CORDOBA.
//
// Every quantity is a defined float64 type so that the compiler catches unit
// mix-ups (adding Joules to grams of CO2e) while arithmetic stays allocation
// free. Each type stores its value in one canonical SI-ish unit:
//
//	Time            seconds
//	Energy          joules
//	Power           watts
//	Carbon          grams of CO2-equivalent (g CO2e)
//	CarbonIntensity grams of CO2e per kilowatt-hour (g CO2e/kWh)
//	Area            square centimetres (cm²)
//	Frequency       hertz
//
// Conversions to and from the unit a paper table happens to use (kWh, mm²,
// years, ...) are provided as constructors and accessor methods.
package units

import (
	"fmt"
	"math"
)

// JoulesPerKWh is the number of joules in one kilowatt-hour.
const JoulesPerKWh = 3.6e6

// SecondsPerHour is the number of seconds in one hour.
const SecondsPerHour = 3600

// SecondsPerDay is the number of seconds in one day.
const SecondsPerDay = 86400

// SecondsPerYear is the number of seconds in one (365-day) year, the
// convention used for hardware-lifetime arithmetic in the paper.
const SecondsPerYear = 365 * SecondsPerDay

// Time is a duration or instant measured in seconds. A dedicated type is used
// instead of time.Duration because hardware lifetimes span years and the
// framework needs fractional-second resolution at the same time.
type Time float64

// Hours constructs a Time from a number of hours.
func Hours(h float64) Time { return Time(h * SecondsPerHour) }

// Days constructs a Time from a number of days.
func Days(d float64) Time { return Time(d * SecondsPerDay) }

// Years constructs a Time from a number of 365-day years.
func Years(y float64) Time { return Time(y * SecondsPerYear) }

// Seconds reports t in seconds.
func (t Time) Seconds() float64 { return float64(t) }

// InHours reports t in hours.
func (t Time) InHours() float64 { return float64(t) / SecondsPerHour }

// InYears reports t in 365-day years.
func (t Time) InYears() float64 { return float64(t) / SecondsPerYear }

// String formats the time with an automatically chosen unit.
func (t Time) String() string {
	s := float64(t)
	switch {
	case math.Abs(s) >= SecondsPerYear:
		return fmt.Sprintf("%.3g y", s/SecondsPerYear)
	case math.Abs(s) >= SecondsPerDay:
		return fmt.Sprintf("%.3g d", s/SecondsPerDay)
	case math.Abs(s) >= SecondsPerHour:
		return fmt.Sprintf("%.3g h", s/SecondsPerHour)
	case math.Abs(s) >= 1:
		return fmt.Sprintf("%.3g s", s)
	case math.Abs(s) >= 1e-3:
		return fmt.Sprintf("%.3g ms", s*1e3)
	case math.Abs(s) >= 1e-6:
		return fmt.Sprintf("%.3g µs", s*1e6)
	case s == 0:
		return "0 s"
	default:
		return fmt.Sprintf("%.3g ns", s*1e9)
	}
}

// Energy is an amount of energy in joules.
type Energy float64

// KWh constructs an Energy from kilowatt-hours.
func KWh(k float64) Energy { return Energy(k * JoulesPerKWh) }

// Joules reports e in joules.
func (e Energy) Joules() float64 { return float64(e) }

// InKWh reports e in kilowatt-hours.
func (e Energy) InKWh() float64 { return float64(e) / JoulesPerKWh }

// String formats the energy with an automatically chosen unit.
func (e Energy) String() string {
	j := float64(e)
	switch {
	case math.Abs(j) >= JoulesPerKWh:
		return fmt.Sprintf("%.4g kWh", j/JoulesPerKWh)
	case math.Abs(j) >= 1:
		return fmt.Sprintf("%.4g J", j)
	case math.Abs(j) >= 1e-3:
		return fmt.Sprintf("%.4g mJ", j*1e3)
	case math.Abs(j) >= 1e-6:
		return fmt.Sprintf("%.4g µJ", j*1e6)
	case math.Abs(j) >= 1e-9:
		return fmt.Sprintf("%.4g nJ", j*1e9)
	case j == 0:
		return "0 J"
	default:
		return fmt.Sprintf("%.4g pJ", j*1e12)
	}
}

// Power is a power draw in watts.
type Power float64

// Watts reports p in watts.
func (p Power) Watts() float64 { return float64(p) }

// Over returns the energy consumed when drawing p for duration t.
func (p Power) Over(t Time) Energy { return Energy(float64(p) * float64(t)) }

// String formats the power with an automatically chosen unit.
func (p Power) String() string {
	w := float64(p)
	switch {
	case math.Abs(w) >= 1e3:
		return fmt.Sprintf("%.4g kW", w/1e3)
	case math.Abs(w) >= 1:
		return fmt.Sprintf("%.4g W", w)
	case math.Abs(w) >= 1e-3:
		return fmt.Sprintf("%.4g mW", w*1e3)
	case w == 0:
		return "0 W"
	default:
		return fmt.Sprintf("%.4g µW", w*1e6)
	}
}

// DividedBy returns the power that yields energy e when sustained for t.
func (e Energy) DividedBy(t Time) Power {
	return Power(float64(e) / float64(t))
}

// Carbon is a mass of emitted CO2-equivalent, in grams.
type Carbon float64

// Grams reports c in grams of CO2e.
func (c Carbon) Grams() float64 { return float64(c) }

// String formats the carbon mass with an automatically chosen unit.
func (c Carbon) String() string {
	g := float64(c)
	switch {
	case math.Abs(g) >= 1e6:
		return fmt.Sprintf("%.4g tCO2e", g/1e6)
	case math.Abs(g) >= 1e3:
		return fmt.Sprintf("%.4g kgCO2e", g/1e3)
	case math.Abs(g) >= 1:
		return fmt.Sprintf("%.4g gCO2e", g)
	case g == 0:
		return "0 gCO2e"
	default:
		return fmt.Sprintf("%.4g mgCO2e", g*1e3)
	}
}

// CarbonIntensity is the carbon emitted per unit of energy, in g CO2e per
// kilowatt-hour — the unit used for both CI_use and CI_fab in the paper.
type CarbonIntensity float64

// GramsPerKWh reports ci in g CO2e/kWh.
func (ci CarbonIntensity) GramsPerKWh() float64 { return float64(ci) }

// Of returns the carbon emitted when energy e is drawn from a source with
// intensity ci.
func (ci CarbonIntensity) Of(e Energy) Carbon {
	return Carbon(float64(ci) * e.InKWh())
}

// String formats the carbon intensity.
func (ci CarbonIntensity) String() string {
	return fmt.Sprintf("%.4g gCO2e/kWh", float64(ci))
}

// Area is a silicon area in square centimetres.
type Area float64

// MM2 constructs an Area from square millimetres.
func MM2(mm2 float64) Area { return Area(mm2 / 100) }

// CM2 reports a in square centimetres.
func (a Area) CM2() float64 { return float64(a) }

// String formats the area.
func (a Area) String() string {
	cm2 := float64(a)
	if math.Abs(cm2) < 0.1 && cm2 != 0 {
		return fmt.Sprintf("%.4g mm²", cm2*100)
	}
	return fmt.Sprintf("%.4g cm²", cm2)
}

// Frequency is a clock rate in hertz.
type Frequency float64

// GHz constructs a Frequency from gigahertz.
func GHz(g float64) Frequency { return Frequency(g * 1e9) }

// MHz constructs a Frequency from megahertz.
func MHz(m float64) Frequency { return Frequency(m * 1e6) }

// Hertz reports f in hertz.
func (f Frequency) Hertz() float64 { return float64(f) }

// InGHz reports f in gigahertz.
func (f Frequency) InGHz() float64 { return float64(f) / 1e9 }

// Period returns the duration of one cycle at frequency f.
func (f Frequency) Period() Time { return Time(1 / float64(f)) }

// String formats the frequency with an automatically chosen unit.
func (f Frequency) String() string {
	hz := float64(f)
	switch {
	case math.Abs(hz) >= 1e9:
		return fmt.Sprintf("%.4g GHz", hz/1e9)
	case math.Abs(hz) >= 1e6:
		return fmt.Sprintf("%.4g MHz", hz/1e6)
	case math.Abs(hz) >= 1e3:
		return fmt.Sprintf("%.4g kHz", hz/1e3)
	default:
		return fmt.Sprintf("%.4g Hz", hz)
	}
}

// Bytes is a memory capacity in bytes.
type Bytes float64

// Size constants for Bytes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// MB constructs a Bytes from mebibytes (the paper's "MB" SRAM capacities).
func MB(m float64) Bytes { return Bytes(m) * MiB }

// InMB reports b in mebibytes.
func (b Bytes) InMB() float64 { return float64(b / MiB) }

// String formats the capacity with an automatically chosen unit.
func (b Bytes) String() string {
	v := float64(b)
	switch {
	case math.Abs(v) >= float64(GiB):
		return fmt.Sprintf("%.4g GiB", v/float64(GiB))
	case math.Abs(v) >= float64(MiB):
		return fmt.Sprintf("%.4g MiB", v/float64(MiB))
	case math.Abs(v) >= float64(KiB):
		return fmt.Sprintf("%.4g KiB", v/float64(KiB))
	default:
		return fmt.Sprintf("%.4g B", v)
	}
}

// Bandwidth is a memory bandwidth in bytes per second.
type Bandwidth float64

// GBps constructs a Bandwidth from gigabytes (1e9 bytes) per second, the unit
// used for the LPDDR4 "16 GB/s" figure in §V.
func GBps(g float64) Bandwidth { return Bandwidth(g * 1e9) }

// BytesPerSecond reports bw in bytes per second.
func (bw Bandwidth) BytesPerSecond() float64 { return float64(bw) }

// String formats the bandwidth.
func (bw Bandwidth) String() string {
	return fmt.Sprintf("%.4g GB/s", float64(bw)/1e9)
}
