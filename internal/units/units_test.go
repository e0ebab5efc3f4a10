package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"hours", Hours(2).Seconds(), 7200},
		{"days", Days(1).Seconds(), 86400},
		{"years", Years(1).Seconds(), 31536000},
		{"in-hours", Time(7200).InHours(), 2},
		{"in-years", Years(5).InYears(), 5},
	}
	for _, c := range cases {
		if !almostEqual(c.got, c.want, 1e-12) {
			t.Errorf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
}

func TestEnergyKWhRoundTrip(t *testing.T) {
	if got := KWh(1).Joules(); got != 3.6e6 {
		t.Fatalf("KWh(1) = %v J, want 3.6e6", got)
	}
	if got := Energy(9.5).InKWh(); !almostEqual(got, 2.639e-6, 1e-3) {
		// Table II row [C3]: 9.5 J budget = 2.639e-6 kWh.
		t.Fatalf("9.5 J = %v kWh, want 2.639e-6", got)
	}
}

func TestPowerOver(t *testing.T) {
	e := Power(8.3).Over(Hours(1))
	if !almostEqual(e.Joules(), 8.3*3600, 1e-12) {
		t.Fatalf("8.3 W over 1 h = %v", e)
	}
	p := e.DividedBy(Hours(1))
	if !almostEqual(p.Watts(), 8.3, 1e-12) {
		t.Fatalf("round trip power = %v", p)
	}
}

func TestCarbonIntensityOf(t *testing.T) {
	// Table V: 8.3 W for one hour at 380 g/kWh is 3.154 g CO2e per hour.
	e := Power(8.3).Over(Hours(1))
	c := CarbonIntensity(380).Of(e)
	if !almostEqual(c.Grams(), 3.154, 1e-3) {
		t.Fatalf("C_op per hour = %v, want 3.154 g", c)
	}
}

func TestAreaConversions(t *testing.T) {
	if got := MM2(225).CM2(); !almostEqual(got, 2.25, 1e-12) {
		t.Fatalf("225 mm² = %v cm²", got)
	}
}

func TestFrequency(t *testing.T) {
	f := GHz(0.02)
	if !almostEqual(f.Hertz(), 2e7, 1e-12) {
		t.Fatalf("0.02 GHz = %v Hz", f.Hertz())
	}
	if !almostEqual(f.Period().Seconds(), 5e-8, 1e-12) {
		t.Fatalf("period = %v", f.Period())
	}
	if got := MHz(250).InGHz(); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("250 MHz = %v GHz", got)
	}
}

func TestBytes(t *testing.T) {
	if MB(8) != 8*MiB {
		t.Fatalf("MB(8) = %v", MB(8))
	}
	if got := (32 * MiB).InMB(); got != 32 {
		t.Fatalf("32 MiB = %v MB", got)
	}
}

func TestBandwidth(t *testing.T) {
	bw := GBps(16)
	if bw.BytesPerSecond() != 16e9 {
		t.Fatalf("16 GB/s = %v B/s", bw.BytesPerSecond())
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Time(0.002).String(), "2 ms"},
		{Time(5400).String(), "1.5 h"},
		{Years(5).String(), "5 y"},
		{Energy(1.9e-9).String(), "1.9 nJ"},
		{Energy(3.6e6).String(), "1 kWh"},
		{Power(0.038).String(), "38 mW"},
		{Power(5000).String(), "5 kW"},
		{Carbon(5375.33).String(), "5.375 kgCO2e"},
		{Carbon(0.001).String(), "1 mgCO2e"},
		{CarbonIntensity(380).String(), "380 gCO2e/kWh"},
		{Area(2.25).String(), "2.25 cm²"},
		{Area(0.05).String(), "5 mm²"},
		{GHz(3.2).String(), "3.2 GHz"},
		{MHz(250).String(), "250 MHz"},
		{(8 * MiB).String(), "8 MiB"},
		{GBps(16).String(), "16 GB/s"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestZeroStrings(t *testing.T) {
	for _, s := range []string{
		Time(0).String(), Energy(0).String(), Power(0).String(), Carbon(0).String(),
	} {
		if s == "" {
			t.Fatal("zero value produced empty string")
		}
	}
}

// Property: converting any energy to kWh and back is the identity.
func TestEnergyRoundTripProperty(t *testing.T) {
	f := func(j float64) bool {
		if math.IsNaN(j) || math.IsInf(j, 0) {
			return true
		}
		e := Energy(j)
		return almostEqual(KWh(e.InKWh()).Joules(), j, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CarbonIntensity.Of is linear in the energy argument.
func TestCarbonIntensityLinearity(t *testing.T) {
	f := func(ci, e1, e2 float64) bool {
		ci = math.Mod(math.Abs(ci), 1000)
		e1 = math.Mod(math.Abs(e1), 1e9)
		e2 = math.Mod(math.Abs(e2), 1e9)
		if math.IsNaN(ci + e1 + e2) {
			return true
		}
		c := CarbonIntensity(ci)
		sum := c.Of(Energy(e1)) + c.Of(Energy(e2))
		whole := c.Of(Energy(e1 + e2))
		return almostEqual(sum.Grams(), whole.Grams(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Power.Over is monotone in time for positive power.
func TestPowerOverMonotone(t *testing.T) {
	f := func(p, t1, t2 float64) bool {
		p = math.Mod(math.Abs(p), 1e6)
		t1 = math.Mod(math.Abs(t1), 1e9)
		t2 = math.Mod(math.Abs(t2), 1e9)
		if math.IsNaN(p + t1 + t2) {
			return true
		}
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		return Power(p).Over(Time(lo)) <= Power(p).Over(Time(hi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
