// Allocation regression tests: testing.AllocsPerRun with hard ceilings on
// the hot paths the allocation-free core rewrite optimized, so the wins
// cannot silently regress between benchmark runs (the bench guard only
// gates ns/op). Package-internal counterparts live next to their subjects
// (TestBroadcastAllocs in internal/netsim, TestInsertAllocs in
// internal/blocktree); this file pins the façade-level collector pass.
package blockadt_bench

import (
	"testing"

	blockadt "blockadt/pkg/blockadt"
)

// TestCollectorAllocs pins the metric-collector pass over a completed run.
// The collectors walk the history's read list, which the recorder builds
// as responses arrive, and compare chains by ancestor walks on the
// history's parent table, so a full pass over every registered metric
// costs a handful of small allocations (per-collector scratch maps), not
// a per-read chain or a rebuild of the read sequence. Measured ≈6
// allocs/pass; the ceiling leaves headroom for new collectors while still
// failing instantly if reads are materialized again (hundreds per pass).
func TestCollectorAllocs(t *testing.T) {
	res, err := blockadt.Simulate("Bitcoin", blockadt.WithBlocks(30), blockadt.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	run := blockadt.MetricRun{
		N: 8, TargetBlocks: 30, Blocks: res.Blocks, Forks: res.Forks,
		Ticks: res.Ticks, Delivered: res.Delivered, Dropped: res.Dropped,
		Bytes: res.Bytes, History: res.History,
	}
	specs := blockadt.Metrics()
	if len(specs) == 0 {
		t.Fatal("no metric specs registered")
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, spec := range specs {
			spec.Compute(run)
		}
	})
	if allocs > 32 {
		t.Fatalf("collector pass allocated %.1f objects, want ≤ 32", allocs)
	}
}
