package consistency_test

import (
	"testing"

	"blockadt/internal/chains"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
)

// bitcoinRun simulates Bitcoin with n=8 and 30 blocks over the given
// dissemination topology, the shape of the CI sweep matrix, and returns
// its history with the options the sweep classifies it under.
func bitcoinRun(tb testing.TB, topo chains.TopologyPlan) (*history.History, consistency.Options) {
	tb.Helper()
	p := chains.ScenarioParams{Params: chains.Params{N: 8, TargetBlocks: 30, Seed: 42}}
	res, err := chains.Execute(chains.Scenario{System: chains.Bitcoin{}, Topology: topo, Params: p})
	if err != nil {
		tb.Fatal(err)
	}
	return res.History, chains.Options(p.Params, res.History)
}

// BenchmarkClassify classifies the histories BenchmarkRecord in
// internal/history replays: Bitcoin (n=8, 30 blocks) on the complete
// graph and on two latency clusters.
func BenchmarkClassify(b *testing.B) {
	for _, topo := range []struct {
		name string
		plan chains.TopologyPlan
	}{
		{"complete", chains.TopologyPlan{}},
		{"clustered2", chains.ClusteredTopology(2, 4)},
	} {
		h, opts := bitcoinRun(b, topo.plan)
		b.Run(topo.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if consistency.Classify(h, opts).Level != consistency.LevelEC {
					b.Fatal("Bitcoin run not classified EC")
				}
			}
		})
	}
}

// TestClassifyAllocs pins the classifier's allocations on the Bitcoin CI
// history: per-pass scratch slices plus the eight counterexamples each
// failing property keeps, rendered only once kept. Measured 79 (486
// before the log stored chains as tips); the ceiling leaves headroom for
// a new property but fails at once if reads or violations are
// materialized per read again.
func TestClassifyAllocs(t *testing.T) {
	h, opts := bitcoinRun(t, chains.TopologyPlan{})
	allocs := testing.AllocsPerRun(20, func() { consistency.Classify(h, opts) })
	if allocs > 100 {
		t.Fatalf("Classify allocated %.1f objects, want ≤ 100", allocs)
	}
}
