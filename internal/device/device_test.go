package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNodesOrderedAndMonotone(t *testing.T) {
	nodes := Nodes()
	if len(nodes) < 5 {
		t.Fatalf("expected at least 5 nodes, got %d", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		prev, cur := nodes[i-1], nodes[i]
		if cur.Nm >= prev.Nm {
			t.Errorf("nodes not ordered: %s after %s", cur.Name, prev.Name)
		}
		if cur.CapScale >= prev.CapScale {
			t.Errorf("%s: capacitance should shrink vs %s", cur.Name, prev.Name)
		}
		if cur.SpeedScale <= prev.SpeedScale {
			t.Errorf("%s: speed should improve vs %s", cur.Name, prev.Name)
		}
		if cur.AreaScale >= prev.AreaScale {
			t.Errorf("%s: area should shrink vs %s", cur.Name, prev.Name)
		}
		if cur.VDDNominal >= prev.VDDNominal {
			t.Errorf("%s: V_DD should drop vs %s", cur.Name, prev.Name)
		}
	}
}

func TestNodeByName(t *testing.T) {
	n, err := NodeByName("7nm")
	if err != nil || n.Nm != 7 {
		t.Fatalf("NodeByName(7nm) = %v, %v", n, err)
	}
	if _, err := NodeByName("6nm"); err == nil {
		t.Fatal("expected error for unknown node")
	}
	if Node7nm().Nm != 7 {
		t.Fatal("Node7nm broken")
	}
}

// Node lookups read the one package-level table: grid compilation calls
// them once per node-axis entry, so they must not rebuild it. Nodes hands
// out a copy the caller may modify.
func TestNodeLookupAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { _, _ = NodeByName("3nm") }); a != 0 {
		t.Errorf("NodeByName allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = Node7nm() }); a != 0 {
		t.Errorf("Node7nm allocates %v times per call, want 0", a)
	}
	ns := Nodes()
	ns[0].Name = "changed"
	if Nodes()[0].Name == "changed" {
		t.Error("Nodes must return a copy of the table")
	}
}

func TestValidate(t *testing.T) {
	d := NewDesign(Node7nm())
	if err := d.Validate(); err != nil {
		t.Fatalf("nominal design invalid: %v", err)
	}
	bad := []func(Design) Design{
		func(d Design) Design { d.VDD = 0; return d },
		func(d Design) Design { d.VT = -0.1; return d },
		func(d Design) Design { d.VDD = 0.2; d.VT = 0.3; return d },
		func(d Design) Design { d.WidthScale = 0; return d },
		func(d Design) Design { d.Alpha = 3; return d },
		func(d Design) Design { d.Gates = 0; return d },
	}
	for i, mut := range bad {
		if err := mut(d).Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

// Table VI row 1: lowering V_DD lowers energy and raises delay.
func TestVDDKnobDirection(t *testing.T) {
	d := NewDesign(Node7nm())
	low := d
	low.VDD = d.VDD * 0.85
	if low.DynamicEnergyPerCycle() >= d.DynamicEnergyPerCycle() {
		t.Error("lower V_DD should lower dynamic energy")
	}
	if low.GateDelay() <= d.GateDelay() {
		t.Error("lower V_DD should raise delay")
	}
	if low.Area() != d.Area() {
		t.Error("V_DD should not change area")
	}
}

// Table VI row 2: raising V_T lowers leakage (hence task energy) and raises
// delay.
func TestVTKnobDirection(t *testing.T) {
	d := NewDesign(Node7nm())
	hi := d
	hi.VT = d.VT * 1.3
	if hi.LeakagePower() >= d.LeakagePower() {
		t.Error("higher V_T should lower leakage")
	}
	if hi.GateDelay() <= d.GateDelay() {
		t.Error("higher V_T should raise delay")
	}
}

// Table VI row 3: narrower transistors lower energy and area, raise delay...
func TestWidthKnobDirection(t *testing.T) {
	d := NewDesign(Node7nm())
	slim := d
	slim.WidthScale = 0.5
	if slim.DynamicEnergyPerCycle() >= d.DynamicEnergyPerCycle() {
		t.Error("narrower devices should lower dynamic energy")
	}
	if slim.Area() >= d.Area() {
		t.Error("narrower devices should shrink area")
	}
	// Gate delay: C and I both scale with W, so intrinsic delay is flat in
	// this first-order model; the energy/area movement is what Table VI
	// records. Verify delay does not *improve*.
	if slim.GateDelay() < d.GateDelay()*0.999999 {
		t.Error("narrower devices should not improve delay")
	}
}

// §VII: advancing the technology node improves both energy and delay
// (that is why EDP always improved with scaling).
func TestNodeAdvanceImprovesEnergyAndDelay(t *testing.T) {
	nodes := Nodes()
	for i := 1; i < len(nodes); i++ {
		older := NewDesign(nodes[i-1])
		newer := NewDesign(nodes[i])
		od, oe := older.Run(1e9)
		nd, ne := newer.Run(1e9)
		if ne >= oe {
			t.Errorf("%s→%s: energy should improve (%v → %v)", nodes[i-1].Name, nodes[i].Name, oe, ne)
		}
		if nd >= od {
			t.Errorf("%s→%s: delay should improve (%v → %v)", nodes[i-1].Name, nodes[i].Name, od, nd)
		}
		if newer.Area() >= older.Area() {
			t.Errorf("%s→%s: area should shrink", nodes[i-1].Name, nodes[i].Name)
		}
	}
}

func TestSweepDirections(t *testing.T) {
	effects := Sweep(NewDesign(Node7nm()), 1e9)
	byKnob := map[Knob]Effect{}
	for _, e := range effects {
		byKnob[e.Knob] = e
	}
	if e := byKnob[KnobVDDDown]; !(e.EnergyRatio < 1 && e.DelayRatio > 1 && e.AreaRatio == 1) {
		t.Errorf("V_DD down effect = %+v", e)
	}
	if e := byKnob[KnobVTUp]; !(e.EnergyRatio < 1 && e.DelayRatio > 1) {
		t.Errorf("V_T up effect = %+v", e)
	}
	if e := byKnob[KnobWidthDown]; !(e.EnergyRatio < 1 && e.AreaRatio < 1) {
		t.Errorf("width down effect = %+v", e)
	}
	if e := byKnob[KnobNodeAdvance]; !(e.EnergyRatio < 1 && e.DelayRatio < 1 && e.AreaRatio < 1) {
		t.Errorf("node advance effect = %+v", e)
	}
}

func TestKnobStrings(t *testing.T) {
	for k := KnobVDDDown; k <= KnobNodeAdvance; k++ {
		if k.String() == "" {
			t.Errorf("knob %d has empty name", int(k))
		}
	}
	if Knob(42).String() != "Knob(42)" {
		t.Error("unknown knob string")
	}
}

func TestKnobApplyNodeAtNewest(t *testing.T) {
	nodes := Nodes()
	d := NewDesign(nodes[len(nodes)-1])
	d2 := KnobNodeAdvance.Apply(d)
	if d2.Node.Nm != d.Node.Nm {
		t.Error("advancing past the newest node should be a no-op")
	}
}

// §III-A: under the ideal square law (α=2) with V_T=0 and no leakage, ED² is
// V_DD-independent; with modern α=1.3 and nonzero V_T it is not.
func TestED2PVDDIndependenceSquareLaw(t *testing.T) {
	ideal := NewDesign(Node7nm())
	ideal.Alpha = 2
	ideal.VT = 0
	ref := DVFSPoint(ideal, 1.0).ED2PPerCycle()
	for _, s := range []float64{0.6, 0.8, 1.2} {
		got := DVFSPoint(ideal, s).ED2PPerCycle()
		if math.Abs(got-ref) > 1e-9*ref {
			t.Errorf("square-law ED2 at scale %v = %v, want %v", s, got, ref)
		}
	}

	modern := NewDesign(Node7nm()) // α=1.3, V_T=0.3
	ref = DVFSPoint(modern, 1.0).ED2PPerCycle()
	got := DVFSPoint(modern, 0.7).ED2PPerCycle()
	if math.Abs(got-ref) < 0.05*ref {
		t.Errorf("modern ED2 should vary with V_DD: %v vs %v", got, ref)
	}
}

// EDP, by contrast, always varies with V_DD: it is the knob-balancing metric.
func TestEDPVariesWithVDD(t *testing.T) {
	d := NewDesign(Node7nm())
	a := DVFSPoint(d, 1.0).EDPPerCycle()
	b := DVFSPoint(d, 0.75).EDPPerCycle()
	if math.Abs(a-b) < 0.01*a {
		t.Error("EDP should vary with V_DD")
	}
}

func TestTaskProfileCapsClock(t *testing.T) {
	d := NewDesign(Node7nm())
	max := d.MaxClock()
	delayAtMax, _ := d.TaskProfile(1e6, max)
	delayOver, _ := d.TaskProfile(1e6, max*10)
	if delayOver != delayAtMax {
		t.Errorf("requesting clock above max should cap: %v vs %v", delayOver, delayAtMax)
	}
}

func TestRunEnergyIncludesLeakage(t *testing.T) {
	d := NewDesign(Node7nm())
	delay, energy := d.Run(1e9)
	dyn := units2joules(d.DynamicEnergyPerCycle()) * 1e9
	leak := d.LeakagePower().Watts() * delay.Seconds()
	total := dyn + leak
	if math.Abs(energy.Joules()-total) > 1e-9*total {
		t.Errorf("energy = %v, want dyn+leak = %v", energy.Joules(), total)
	}
	if leak <= 0 {
		t.Error("leakage should be positive")
	}
}

func units2joules(e interface{ Joules() float64 }) float64 { return e.Joules() }

func TestGateDelayInfiniteAtZeroOverdrive(t *testing.T) {
	d := NewDesign(Node7nm())
	d.VDD = d.VT // zero overdrive
	if !math.IsInf(d.GateDelay().Seconds(), 1) {
		t.Error("zero overdrive should give infinite delay")
	}
}

// Property: within the valid V_DD range, delay is monotone decreasing and
// dynamic energy monotone increasing in V_DD.
func TestVDDMonotonicityProperty(t *testing.T) {
	base := NewDesign(Node7nm())
	f := func(a, b uint8) bool {
		// Map to [0.4, 1.0] volts, above V_T=0.3.
		v1 := 0.4 + 0.6*float64(a)/255
		v2 := 0.4 + 0.6*float64(b)/255
		lo, hi := math.Min(v1, v2), math.Max(v1, v2)
		if hi-lo < 1e-6 {
			return true
		}
		dLo, dHi := base, base
		dLo.VDD, dHi.VDD = lo, hi
		return dLo.GateDelay() >= dHi.GateDelay() &&
			dLo.DynamicEnergyPerCycle() <= dHi.DynamicEnergyPerCycle()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: there is an EDP-optimal V_DD strictly inside the range — pushing
// V_DD to either extreme does not minimize EDP when leakage is included.
// (This is the "optimizing EDP automatically selects V_DD" point of §III-A.)
func TestEDPInteriorOptimum(t *testing.T) {
	d := NewDesign(Node7nm())
	edp := func(vdd float64) float64 {
		x := d
		x.VDD = vdd
		delay, energy := x.Run(1e9)
		return energy.Joules() * delay.Seconds()
	}
	lo, mid, hi := edp(0.35), edp(0.55), edp(1.4)
	if !(mid < lo && mid < hi) {
		t.Errorf("EDP should have interior optimum: edp(0.35)=%v edp(0.55)=%v edp(1.4)=%v", lo, mid, hi)
	}
}
