package nn

import (
	"fmt"
	"io"
	"strings"
)

// ArithmeticIntensity returns the layer's MACs per byte of activation+weight
// traffic — the roofline x-coordinate that determines whether the layer is
// compute- or memory-bound on a given accelerator.
func (l Layer) ArithmeticIntensity() float64 {
	bytes := float64(l.WorkingSet() + l.WeightBytes())
	if bytes == 0 {
		return 0
	}
	return l.MACs() / bytes
}

// ArithmeticIntensity returns the network-level MACs per byte.
func (s Stats) ArithmeticIntensity() float64 {
	bytes := float64(s.ActivationTraffic + s.WeightBytes)
	if bytes == 0 {
		return 0
	}
	return s.MACs / bytes
}

// Describe writes a per-layer table of the network: shapes, MACs, parameters
// and working sets — the profile view the paper's simulator consumes.
func (n *Network) Describe(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (input %dx%dx%d)\n", n.Name, n.InputC, n.InputH, n.InputW)
	fmt.Fprintf(&b, "%-24s %-8s %-14s %-14s %12s %12s %14s\n",
		"layer", "op", "in", "out", "MMACs", "params", "working set")
	for _, l := range n.Layers {
		fmt.Fprintf(&b, "%-24s %-8s %-14s %-14s %12.2f %12.0f %14s\n",
			truncate(l.Name, 24), l.Kind.String(),
			fmt.Sprintf("%dx%dx%d", l.InC, l.InH, l.InW),
			fmt.Sprintf("%dx%dx%d", l.OutC, l.OutH, l.OutW),
			l.MACs()/1e6, l.Params(), l.WorkingSet().String())
	}
	s := n.Stats()
	fmt.Fprintf(&b, "total: %.2f GMACs, %.2f M params, peak activation %s, intensity %.1f MACs/B\n",
		s.MACs/1e9, s.Params/1e6, s.PeakActivation, s.ArithmeticIntensity())
	_, err := io.WriteString(w, b.String())
	return err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
