// Command dse runs a parameterized accelerator design-space exploration: it
// evaluates the 121-configuration grid (or the 3D-stacked set) on a chosen
// task, prints the ever-optimal set, the elimination fraction, and the
// tCDP-optimal design across a sweep of operational times.
//
// Example:
//
//	dse -task "XR (5 kernels)" -from 1e4 -to 1e11 -points 8
//	dse -task "All kernels" -stacked
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/table"
	"cordoba/internal/uncertainty"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	fs.SetOutput(w)
	taskName := fs.String("task", workload.TaskAllKernels, "paper task name (see Table IV)")
	from := fs.Float64("from", 1e3, "sweep start (inferences)")
	to := fs.Float64("to", 1e12, "sweep end (inferences)")
	points := fs.Int("points", 10, "sweep points")
	ciUse := fs.Float64("ci", 380, "use-phase carbon intensity (gCO2e/kWh)")
	stacked := fs.Bool("stacked", false, "explore the 7 §VI-E 3D configurations instead of the 121-grid")
	if err := fs.Parse(args); err != nil {
		return err
	}

	task, err := workload.PaperTask(*taskName)
	if err != nil {
		return err
	}
	configs := accel.Grid()
	if *stacked {
		configs = accel.Stacked3D()
	}
	s, err := dse.Evaluate(context.Background(), task, configs, carbon.Process7nm(), carbon.FabCoal, units.CarbonIntensity(*ciUse), nil, dse.StreamOptions{})
	if err != nil {
		return err
	}

	env := s.EverOptimal()
	fmt.Fprintf(w, "task: %s — %d configurations evaluated\n", task.Name, len(s.Points))
	fmt.Fprintf(w, "ever-optimal set (long-operational-time end first): %v\n", s.IDs(env))
	fmt.Fprintf(w, "eliminated as never tCDP-optimal: %.1f%%\n\n", 100*s.EliminatedFraction())

	t := table.New("tCDP-optimal design across operational time",
		"inferences", "optimal", "MAC arrays", "SRAM", "tCDP (gCO2e·s)", "embodied", "delay")
	for _, n := range dse.LogSpace(*from, *to, *points) {
		p := s.Points[s.OptimalAt(n)]
		t.AddRow(fmt.Sprintf("%.1e", n), p.Config.ID,
			fmt.Sprint(p.Config.MACArrays), p.Config.SRAM.String(),
			table.F(p.TCDP(s.CIUse, n)), p.Embodied.String(), p.Delay.String())
	}
	if err := t.Render(w); err != nil {
		return err
	}

	designs := uncertainty.FromDSE(s)
	surv := uncertainty.Survivors(designs)
	names := make([]string, len(surv))
	for i, idx := range surv {
		names[i] = designs[idx].Name
	}
	fmt.Fprintf(w, "\nsurvivors under unknown CI_use(t) (§IV-B): %v\n", names)
	return nil
}
