package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// samples is a set of measurements of one quantity.
type samples []float64

// pct returns the nearest-rank p-th percentile and how many samples lie
// strictly beyond it, so every reported percentile can state its support.
func (s samples) pct(p float64) (v float64, beyond int) {
	if len(s) == 0 {
		return 0, 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p/100*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i], len(c) - 1 - i
}

func (s samples) median() float64 { return s.pctOnly(50) }

func (s samples) pctOnly(p float64) float64 { v, _ := s.pct(p); return v }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
