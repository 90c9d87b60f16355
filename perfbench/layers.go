package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"blockadt/pkg/blockadt"
)

// spanSums is a blockadt.Tracer that keeps the engine's scenario spans
// in memory as sums.
type spanSums struct {
	mu                     sync.Mutex
	n                      int
	queue, simulate, total int64 // ns
}

func (s *spanSums) ObserveSpan(sp blockadt.Span) {
	s.mu.Lock()
	s.n++
	s.queue += sp.QueueNS
	s.simulate += sp.SimulateNS
	s.total += sp.TotalNS
	s.mu.Unlock()
}

// meanMS is a span-phase sum as milliseconds per span.
func (s *spanSums) meanMS(sumNS int64) float64 {
	return float64(sumNS) / 1e6 / float64(max(s.n, 1))
}

// streamTTFB is the median time from calling blockadt.Stream to its
// first result — the engine half of `btadt serve`'s time to first byte.
// With a store directory, each try writes a fresh store under it.
func streamTTFB(m blockadt.Matrix, workers int, storeDir string) (float64, error) {
	const reps = 5
	var ttfb []float64
	for i := 0; i < reps; i++ {
		var opts []blockadt.RunOption
		if storeDir != "" {
			opts = append(opts, blockadt.WithStore(filepath.Join(storeDir, fmt.Sprint(i))))
		}
		t0 := time.Now()
		for _, err := range blockadt.Stream(context.Background(), m, workers, opts...) {
			if err != nil {
				return 0, err
			}
			ttfb = append(ttfb, ms(time.Since(t0)))
			break
		}
	}
	return median(ttfb), nil
}

// setTraceOverhead reports the traced against the untraced throughput.
func setTraceOverhead(res *result, untraced, traced float64) {
	res.set("trace.untraced_scenarios_per_s", untraced, "1/s")
	res.set("trace.scenarios_per_s", traced, "1/s")
	res.set("trace.overhead_frac", 1-traced/untraced, "frac")
}

// setRuntime reports the Go runtime's GC work over the timed window:
// GC CPU as a share of the window's available CPU (the definition of
// runtime.MemStats.GCCPUFraction), and GC cycles and allocation per pass
// over the workload's matrix.
func setRuntime(res *result, before, after runtimeStats, wall time.Duration, passes float64) {
	res.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "frac")
	res.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles)/passes, "count")
	res.set("runtime.alloc_mb", float64(after.allocBytes-before.allocBytes)/1e6/passes, "MB")
}

// decompose re-runs every scenario of the matrix one façade call at a
// time, at parallelism 1, timing each layer: Simulate/SimulateAdversary
// (chains), ClassifyRun (consistency), AnalyzeFairness and every
// MetricSpec.Compute (metrics), json.Marshal of the Result (blockadt),
// and RunStore.Put/Get (runstore). The counters read off each SimResult
// are the netsim, blocktree and history invariants. Every scenario must
// reach the engine's Level, counters and metric values; a disagreement
// is a failed check.
func decompose(res *result, m blockadt.Matrix, configs []blockadt.Scenario, ref *blockadt.Report, dir string) error {
	engine := ref.Results
	keys, err := m.StoreKeys()
	if err != nil {
		return err
	}
	store, err := blockadt.OpenStore(filepath.Join(dir, "layers"))
	if err != nil {
		return err
	}
	specs := blockadt.Metrics()
	var (
		simNS, classifyNS, collectNS, encodeNS, putNS, getNS time.Duration
		simAlloc, classifyAlloc                              uint64
		delivered, dropped, bytes, ticks                     int64
		blocks, forks, events, reads                         int64
		disagree                                             []string
	)
	for i, cfg := range configs {
		opts := []blockadt.Option{blockadt.WithN(cfg.N), blockadt.WithBlocks(cfg.Blocks),
			blockadt.WithSeed(cfg.Seed), blockadt.WithLink(cfg.Link)}
		adversarial := cfg.Adversary != blockadt.AdvNone
		var (
			sim        blockadt.SimResult
			tvd, share float64
		)
		a0, t0 := readRuntime().allocBytes, time.Now()
		if adversarial {
			out, err := blockadt.SimulateAdversary(cfg.System, cfg.Adversary, append(opts, blockadt.WithAlpha(cfg.Alpha))...)
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.Key(), err)
			}
			sim, tvd, share = out.SimResult, out.FairnessTVD, out.AdversaryShare
		} else {
			if cfg.Topology != "" {
				opts = append(opts, blockadt.WithTopology(cfg.Topology))
			}
			if sim, err = blockadt.Simulate(cfg.System, opts...); err != nil {
				return fmt.Errorf("%s: %w", cfg.Key(), err)
			}
		}
		simNS += time.Since(t0)
		simAlloc += readRuntime().allocBytes - a0

		a0, t0 = readRuntime().allocBytes, time.Now()
		cls := blockadt.ClassifyRun(blockadt.SimParams{N: cfg.N, TargetBlocks: cfg.Blocks, Seed: cfg.Seed}, sim)
		classifyNS += time.Since(t0)
		classifyAlloc += readRuntime().allocBytes - a0

		t0 = time.Now()
		if !adversarial {
			tvd = blockadt.AnalyzeFairness(sim.History, equalMerits(cfg.N)).TVD
		}
		run := blockadt.MetricRun{
			N: cfg.N, TargetBlocks: cfg.Blocks,
			Blocks: sim.Blocks, Forks: sim.Forks, Ticks: sim.Ticks,
			Delivered: sim.Delivered, Dropped: sim.Dropped, Bytes: sim.Bytes,
			PartitionHeal: sim.PartitionHeal, History: sim.History,
			FairnessTVD: tvd, Adversarial: adversarial,
			AdversaryShare: share, AdversaryMerit: cfg.Alpha,
		}
		values := map[string]float64{}
		for _, spec := range specs {
			if v, ok := spec.Compute(run); ok {
				values[spec.Name] = v
			}
		}
		collectNS += time.Since(t0)

		e := engine[i]
		if cls.Level.String() != e.Level || sim.Blocks != e.Blocks || sim.Forks != e.Forks ||
			sim.Ticks != e.Ticks || sim.Delivered != e.Delivered || sim.Dropped != e.Dropped ||
			!maps.Equal(values, e.Metrics) {
			disagree = append(disagree, cfg.Key())
		}
		delivered += int64(sim.Delivered)
		dropped += int64(sim.Dropped)
		bytes += sim.Bytes
		ticks += sim.Ticks
		blocks += int64(sim.Blocks)
		forks += int64(sim.Forks)
		events += int64(sim.History.Len())
		reads += int64(len(sim.History.Reads()))

		t0 = time.Now()
		enc, err := json.Marshal(e)
		encodeNS += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := store.Put(keys[i], enc); err != nil {
			return err
		}
		putNS += time.Since(t0)
		t0 = time.Now()
		if _, ok, err := store.Get(keys[i]); err != nil || !ok {
			return fmt.Errorf("run store lost %s: %v", keys[i], err)
		}
		getNS += time.Since(t0)
	}
	if len(disagree) > 0 {
		res.fail("façade decomposition disagrees with the engine on %d scenarios, first %s", len(disagree), disagree[0])
	}

	n := float64(len(configs))
	perMS := func(d time.Duration) float64 { return ms(d) / n }
	res.set("chains.simulate_ms", perMS(simNS), "ms")
	res.set("chains.alloc_kb", float64(simAlloc)/1e3/n, "kB")
	res.set("consistency.classify_ms", perMS(classifyNS), "ms")
	res.set("consistency.alloc_kb", float64(classifyAlloc)/1e3/n, "kB")
	res.set("metrics.collect_ms", perMS(collectNS), "ms")
	res.set("blockadt.encode_us", perMS(encodeNS)*1e3, "us")
	res.set("runstore.put_us", perMS(putNS)*1e3, "us")
	res.set("runstore.get_us", perMS(getNS)*1e3, "us")
	stats := store.Stats()
	res.set("runstore.bytes_written", float64(stats.BytesWritten), "bytes")
	res.set("runstore.bytes_read", float64(stats.BytesRead), "bytes")
	res.set("netsim.delivered", float64(delivered), "count")
	res.set("netsim.dropped", float64(dropped), "count")
	res.set("netsim.bytes", float64(bytes), "bytes")
	res.set("netsim.ticks", float64(ticks), "ticks")
	res.set("blocktree.blocks", float64(blocks), "count")
	res.set("blocktree.forks", float64(forks), "count")
	res.set("history.events", float64(events), "count")
	res.set("history.reads", float64(reads), "count")

	var encodes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := ref.EncodeJSON(); err != nil {
			return err
		}
		encodes = append(encodes, ms(time.Since(t0)))
	}
	res.set("blockadt.report_encode_ms", median(encodes), "ms")
	return nil
}

// equalMerits is the uniform entitlement the engine measures honest
// runs' fairness against.
func equalMerits(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
