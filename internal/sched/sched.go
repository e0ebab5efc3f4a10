// Package sched is a discrete-event multicore scheduler simulator: the
// substrate standing in for the paper's Perfetto system traces (§V, §VI-D).
//
// The paper derives thread-level parallelism (TLP) and core-count
// sensitivity from traces of production VR workloads. Here, a workload is a
// set of threads, each an alternating sequence of compute bursts and waits;
// the simulator schedules them work-conservingly on n identical cores and
// reports the same quantities Perfetto would: per-thread-count occupancy
// histograms (which feed soc.TLPProfile), measured TLP, and makespan — so
// the analytical slowdown model of internal/soc can be validated against an
// actual scheduler.
package sched

import (
	"fmt"
	"math"
	"math/rand"
)

// Segment is one phase of a thread's life.
type Segment struct {
	// Compute is CPU time demanded (seconds).
	Compute float64
	// Wait is time blocked after the burst (I/O, sync, vsync), not using
	// any core.
	Wait float64
}

// Thread is a sequence of segments, started at a given offset.
type Thread struct {
	Name    string
	Start   float64
	Burst   []Segment
	nextIdx int
}

// Workload is a set of threads to schedule.
type Workload struct {
	Name    string
	Threads []Thread
}

// Validate checks the workload is well-formed.
func (w *Workload) Validate() error {
	if len(w.Threads) == 0 {
		return fmt.Errorf("sched: workload %q has no threads", w.Name)
	}
	for _, t := range w.Threads {
		if t.Start < 0 {
			return fmt.Errorf("sched: thread %q starts before 0", t.Name)
		}
		total := 0.0
		for _, s := range t.Burst {
			if s.Compute < 0 || s.Wait < 0 {
				return fmt.Errorf("sched: thread %q has a negative segment", t.Name)
			}
			total += s.Compute
		}
		if total == 0 {
			return fmt.Errorf("sched: thread %q demands no compute", t.Name)
		}
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	Cores    int
	Makespan float64 // completion time of the last thread
	BusyTime float64 // total time during which ≥1 thread was runnable or running
	// Occupancy[k-1] is the fraction of busy time with exactly k threads
	// running (not merely runnable); len = Cores.
	Occupancy []float64
	// RunnableOccupancy[k-1] is the fraction of busy time with exactly k
	// threads *runnable* (running or queued), capped at the histogram
	// length; this is the Perfetto-style TLP view, independent of the core
	// count used for measurement.
	RunnableOccupancy []float64
	// TLP is Σ k·RunnableOccupancy[k-1] — the paper's metric [6], [15].
	TLP float64
}

// maxHistogram bounds the runnable histogram length.
const maxHistogram = 16

// Simulate runs the workload on n identical cores with work-conserving,
// processor-sharing scheduling: at any instant the k runnable threads share
// min(k, n) cores equally, so each makes progress at rate min(1, n/k).
// This matches the fluid limit of a fair scheduler (CFS) and is exact for
// the TLP and slowdown quantities CORDOBA consumes.
func Simulate(w *Workload, n int) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("sched: need at least one core, got %d", n)
	}

	type state struct {
		thread *Thread
		// phase: 0 = not started, 1 = computing, 2 = waiting, 3 = done
		phase     int
		remaining float64 // seconds left in the current phase (compute: CPU-seconds)
		idx       int     // current segment
	}
	threads := make([]state, len(w.Threads))
	for i := range w.Threads {
		t := w.Threads[i] // copy; simulation must not mutate the workload
		threads[i] = state{thread: &t, phase: 0, remaining: t.Start}
	}

	res := Result{
		Cores:             n,
		Occupancy:         make([]float64, n),
		RunnableOccupancy: make([]float64, maxHistogram),
	}

	now := 0.0
	for iter := 0; ; iter++ {
		if iter > 10_000_000 {
			return Result{}, fmt.Errorf("sched: simulation of %q did not terminate", w.Name)
		}
		// Count runnable threads and find the next event horizon.
		runnable := 0
		active := 0 // not done
		for i := range threads {
			if threads[i].phase != 3 {
				active++
			}
			if threads[i].phase == 1 {
				runnable++
			}
		}
		if active == 0 {
			break
		}
		rate := 1.0
		if runnable > n {
			rate = float64(n) / float64(runnable)
		}
		// Time until the nearest phase completion.
		dt := math.Inf(1)
		for i := range threads {
			s := &threads[i]
			switch s.phase {
			case 0, 2: // waiting for start or blocked: wall-clock countdown
				if s.remaining < dt {
					dt = s.remaining
				}
			case 1: // computing at `rate`
				if t := s.remaining / rate; t < dt {
					dt = t
				}
			}
		}
		if math.IsInf(dt, 1) {
			break
		}
		// Account the interval.
		if runnable > 0 {
			res.BusyTime += dt
			running := runnable
			if running > n {
				running = n
			}
			res.Occupancy[running-1] += dt
			bucket := runnable
			if bucket > maxHistogram {
				bucket = maxHistogram
			}
			res.RunnableOccupancy[bucket-1] += dt
		}
		now += dt
		// Advance every thread.
		for i := range threads {
			s := &threads[i]
			switch s.phase {
			case 0, 2:
				s.remaining -= dt
			case 1:
				s.remaining -= dt * rate
			case 3:
				continue
			}
			if s.remaining > 1e-12 {
				continue
			}
			// Phase transition(s).
			switch s.phase {
			case 0:
				s.phase = 1
				s.remaining = s.thread.Burst[0].Compute
				s.idx = 0
			case 1:
				wait := s.thread.Burst[s.idx].Wait
				if wait > 0 {
					s.phase = 2
					s.remaining = wait
				} else if s.idx+1 < len(s.thread.Burst) {
					s.idx++
					s.remaining = s.thread.Burst[s.idx].Compute
				} else {
					s.phase = 3
				}
			case 2:
				if s.idx+1 < len(s.thread.Burst) {
					s.idx++
					s.phase = 1
					s.remaining = s.thread.Burst[s.idx].Compute
				} else {
					s.phase = 3
				}
			}
			// Zero-length phases collapse immediately on the next event.
		}
	}
	res.Makespan = now
	if res.BusyTime > 0 {
		for k := range res.Occupancy {
			res.Occupancy[k] /= res.BusyTime
		}
		for k := range res.RunnableOccupancy {
			res.RunnableOccupancy[k] /= res.BusyTime
			res.TLP += float64(k+1) * res.RunnableOccupancy[k]
		}
	}
	return res, nil
}

// Slowdown runs the workload on n and on ref cores and returns
// makespan(n)/makespan(ref) — the measured counterpart of
// soc.TLPProfile.Slowdown.
func Slowdown(w *Workload, n, ref int) (float64, error) {
	rn, err := Simulate(w, n)
	if err != nil {
		return 0, err
	}
	rr, err := Simulate(w, ref)
	if err != nil {
		return 0, err
	}
	if rr.Makespan == 0 {
		return 0, fmt.Errorf("sched: reference makespan is zero")
	}
	return rn.Makespan / rr.Makespan, nil
}

// SyntheticVR generates a VR-style workload: a render thread and a
// compositor with vsync-periodic bursts, plus a pool of worker threads with
// random bursts. The generator is deterministic for a given seed; targetTLP
// steers the worker pool's overlap.
func SyntheticVR(name string, targetTLP float64, frames int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	const framePeriod = 1.0 / 72 // 72 Hz headset refresh
	w := &Workload{Name: name}

	// Render and compositor threads: one burst per frame.
	mk := func(tname string, busyFrac float64, phase float64) Thread {
		t := Thread{Name: tname, Start: phase}
		for f := 0; f < frames; f++ {
			busy := framePeriod * busyFrac * (0.9 + 0.2*rng.Float64())
			t.Burst = append(t.Burst, Segment{Compute: busy, Wait: framePeriod - busy})
		}
		return t
	}
	w.Threads = append(w.Threads,
		mk("render", 0.75, 0),
		mk("compositor", 0.55, framePeriod/3),
	)

	// Worker pool sized to land near the target TLP: the two frame threads
	// contribute ≈1.3; each worker at duty d contributes ≈d.
	remaining := targetTLP - 1.3
	for i := 0; remaining > 0.05 && i < 12; i++ {
		duty := math.Min(remaining, 0.4+0.3*rng.Float64())
		w.Threads = append(w.Threads, mk(fmt.Sprintf("worker%d", i), duty, rng.Float64()*framePeriod))
		remaining -= duty
	}
	return w
}
