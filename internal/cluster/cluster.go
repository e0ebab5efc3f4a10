// Package cluster distributes knob-range design-space explorations across a
// fleet of cordobad workers. A coordinator splits the grid's shape-major
// enumeration into contiguous shape shards, fans them out as dse-shard jobs
// over the typed client package, and merges the returned survivor envelopes
// with the associative Pareto-envelope merge into a single-node run's result:
// the same survivors and counters, the floating-point sums equal up to
// re-association.
//
// The subsystem leans on two properties the engine already guarantees:
//
//   - Rejection is final: a point above the current lower convex envelope is
//     above every later envelope, so per-shard envelopes lose nothing and
//     envelope(A ∪ B) = envelope(envelope(A) ∪ envelope(B)). Merging is
//     associative; the coordinator can fold worker envelopes in any arrival
//     order and normalize by shard position at the end.
//
//   - Shards keep global identity: a shard evaluates shapes [first,
//     first+count) with every point carrying its whole-grid index, so the
//     merged envelope tie-breaks coordinate duplicates exactly as the
//     single-node stream would ("first offer wins" in global order).
//
// Failure handling is checkpoint-first: workers checkpoint shard progress
// through the jobs subsystem, and when a worker stalls or dies the
// coordinator salvages the last checkpoint when the worker is still
// reachable, then requeues the shard (with the checkpoint attached) on the
// surviving workers.
package cluster

// Shard is one contiguous shape-range assignment of a sharded exploration.
type Shard struct {
	Index int // position in the plan, 0-based
	First int // first shape (inclusive)
	Count int // number of shapes
}

// Plan splits a grid of `shapes` shapes into at most n contiguous shards,
// balanced to within one shape. n < 1 collapses to a single shard; n >
// shapes yields one shard per shape. The concatenated shards cover [0,
// shapes) exactly, in order.
func Plan(shapes, n int) []Shard {
	if shapes <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > shapes {
		n = shapes
	}
	base, rem := shapes/n, shapes%n
	out := make([]Shard, n)
	first := 0
	for i := range out {
		count := base
		if i < rem {
			count++
		}
		out[i] = Shard{Index: i, First: first, Count: count}
		first += count
	}
	return out
}
