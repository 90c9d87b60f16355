package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blockadt/pkg/blockadt"
)

// setupReps is how many times a sweep run repeats its set-up; setup_s is
// the median.
const setupReps = 25

// ciMatrix is CI's SWEEP_MATRIX: every system over six link models,
// honest and selfish, n=8, 30 blocks, two seeds, every metric — the
// matrix SWEEP_baseline.json pins.
func ciMatrix(root uint64) blockadt.Matrix {
	return blockadt.Matrix{
		Links: []string{blockadt.LinkSync, blockadt.LinkAsync, blockadt.LinkPsync,
			blockadt.LinkLossy, blockadt.LinkPartition, blockadt.LinkJitter},
		Adversaries:  []string{blockadt.AdvNone, blockadt.AdvSelfish},
		Ns:           []int{8},
		Seeds:        2,
		TargetBlocks: 30,
		Metrics:      blockadt.MetricNames(),
		RootSeed:     root,
	}
}

// sweepSpec is one in-process sweep workload: the matrix every timed
// blockadt.Run executes, and whether each sweep writes a fresh run store.
type sweepSpec struct {
	matrix func(root uint64) blockadt.Matrix
	store  bool
}

// sweepCI is the traffic users and CI run, plus the three topologies:
// short histories, so simulation dominates, and the store's write path.
// Scenario cost varies with the seed; 32 seeds per point keep the
// matrix's total cost within a few percent from one root seed to the next.
var sweepCI = sweepSpec{store: true, matrix: func(root uint64) blockadt.Matrix {
	m := ciMatrix(root)
	m.Topologies = []string{blockadt.TopoComplete, blockadt.TopoGossip, blockadt.TopoClustered}
	m.Seeds = 32
	return m
}}

// sweepLong has 8× longer histories, so the consistency checker and
// history pressure take a larger share; it bypasses the run store. Like
// sweep-ci, it has enough seeds that the root seed barely moves its cost.
var sweepLong = sweepSpec{matrix: func(root uint64) blockadt.Matrix {
	return blockadt.Matrix{
		// Only Bitcoin and Ethereum implement psync, so this is all
		// seven systems on sync plus the two PoW systems on psync.
		Links:        []string{blockadt.LinkSync, blockadt.LinkPsync},
		Ns:           []int{8},
		Seeds:        16,
		TargetBlocks: 240,
		Metrics:      blockadt.MetricNames(),
		RootSeed:     root,
	}
}}

// sweepDigest is one distinct report the timed sweeps produced.
type sweepDigest struct {
	rep   *blockadt.Report
	count int
}

func runSweep(o options, spec sweepSpec) (*result, error) {
	workers := runtime.NumCPU()
	m := spec.matrix(o.seed)
	res := &result{}

	// Set-up: matrix expansion and opening a fresh run store.
	var setups []float64
	var configs []blockadt.Scenario
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cs, err := m.Configs()
		if err != nil {
			return nil, err
		}
		if spec.store {
			if _, err := blockadt.OpenStore(filepath.Join(o.work, fmt.Sprintf("setup-%d", i))); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		configs = cs
	}

	// The timed window. Each sweep is measured on its own — wall time,
	// process CPU, peak RSS and the percentiles of its scenarios' latencies
	// — and the end-to-end metrics are medians over sweeps, which a burst
	// of CPU steal on a shared host moves less than window totals. In a traced run every other sweep carries a
	// tracer, so traced and untraced throughput are measured side by side.
	spans := &spanSums{}
	census := &blockadt.Census{}
	digests := map[[32]byte]*sweepDigest{}
	var p50s, p99s, rates, cpus, peaks []float64
	var wallOf [2]time.Duration // [untraced, traced]
	var opsOf [2]int
	steal0, ticks0 := cpuTicks()
	rt0, start := readRuntime(), time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	minOps := 1 + btoi(o.trace) // a traced run needs a sweep of each kind
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		var opts []blockadt.RunOption
		if spec.store {
			opts = append(opts, blockadt.WithStore(filepath.Join(o.work, fmt.Sprintf("store-%d", i))))
		}
		if traced {
			opts = append(opts, blockadt.WithTracer(spans), blockadt.WithCensus(census))
		}
		if err := resetPeakRSS("self"); err != nil {
			return nil, err
		}
		c0, t0 := selfCPU(), time.Now()
		rep, err := blockadt.Run(m, workers, opts...)
		var enc []byte
		if err == nil {
			enc, err = rep.EncodeJSON()
		}
		d, c := time.Since(t0), selfCPU()-c0
		peak, perr := peakRSSMB("self")
		if perr != nil {
			return nil, perr
		}
		res.Attempted += len(configs)
		if err != nil {
			res.Failed += len(configs)
			res.fail("sweep %d: %v", i, err)
			continue
		}
		class := btoi(traced)
		wallOf[class] += d
		opsOf[class]++
		rates = append(rates, float64(len(configs))/d.Seconds())
		cpus = append(cpus, ms(c)/float64(len(configs)))
		peaks = append(peaks, peak)
		latencies := make([]float64, len(rep.Results))
		for j, r := range rep.Results {
			latencies[j] = float64(r.WallNS) / 1e6
		}
		p50s = append(p50s, quantile(latencies, 0.50))
		p99s = append(p99s, quantile(latencies, 0.99))
		sum := sha256.Sum256(enc)
		if dg := digests[sum]; dg != nil {
			dg.count++
		} else {
			digests[sum] = &sweepDigest{rep: rep, count: 1}
		}
	}
	wall, rt1 := time.Since(start), readRuntime()
	res.StealFrac = stealFrac(steal0, ticks0)

	// Verification: every timed report must equal the parallelism-1
	// reference row for row, and sweep-ci must reproduce the pinned rows.
	ref, err := blockadt.Run(m, 1)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	bad := map[int]bool{}
	if spec.store {
		if bad, err = checkBaseline(o, ref, workers, res); err != nil {
			return nil, err
		}
	}
	for _, dg := range digests {
		rows := diffRows(dg.rep.Results, ref.Results, bad)
		if rows > 0 {
			res.fail("%d sweeps differ from the parallelism-1 reference or the baseline in %d rows", dg.count, rows)
		}
		res.Failed += dg.count * rows
	}
	noteMismatches(res, ref.Results)

	if !o.trace {
		res.set("setup_s", median(setups), "s")
		res.set("scenarios_per_s", median(rates), "1/s")
		res.set("cpu_ms_per_scenario", median(cpus), "ms")
		res.set("request_ms_p50", median(p50s), "ms")
		res.set("peak_rss_mb", median(peaks), "MB")
		return res, nil
	}

	res.set("request_ms_p99", median(p99s), "ms")
	res.set("blockadt.queue_ms", spans.meanMS(spans.queue), "ms")
	res.set("blockadt.simulate_phase_ms", spans.meanMS(spans.simulate), "ms")
	res.set("parallel.busy_frac", float64(spans.total)/(float64(wallOf[1])*float64(workers)), "frac")
	res.set("serve.cache_hit_frac", float64(census.CacheHits())/float64(max(census.Scenarios(), 1)), "frac")
	res.set("serve.simulated", 0, "count")
	ttfbStore := ""
	if spec.store {
		ttfbStore = filepath.Join(o.work, "ttfb")
	}
	ttfb, err := streamTTFB(m, workers, ttfbStore)
	if err != nil {
		return nil, err
	}
	res.set("serve.ttfb_ms", ttfb, "ms")
	perScenario := func(class int) float64 {
		return float64(len(configs)*opsOf[class]) / wallOf[class].Seconds()
	}
	setTraceOverhead(res, perScenario(0), perScenario(1))
	setRuntime(res, rt0, rt1, wall, float64(opsOf[0]+opsOf[1]))
	if err := decompose(res, m, configs, ref, o.work); err != nil {
		return nil, err
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// diffRows counts the rows of got that differ from want or are marked
// bad; a length mismatch fails every row.
func diffRows(got, want []blockadt.Result, bad map[int]bool) int {
	if len(got) != len(want) {
		return max(len(got), len(want))
	}
	n := 0
	for i := range got {
		if bad[i] || !sameResult(got[i], want[i]) {
			n++
		}
	}
	return n
}

// sameResult compares two rows in their canonical JSON form.
func sameResult(a, b blockadt.Result) bool {
	ea, err1 := json.Marshal(a)
	eb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ea, eb)
}

// checkBaseline holds the CI matrix to SWEEP_baseline.json. When the run's
// root seed is the baseline's, the reference report's rows with a
// baseline key are compared, and the indices of those that differ are
// returned; under any other root the CI matrix is swept again at the
// baseline's root, through a fresh run store, and compared.
func checkBaseline(o options, ref *blockadt.Report, workers int, res *result) (map[int]bool, error) {
	raw, err := os.ReadFile(filepath.Join(o.root, "SWEEP_baseline.json"))
	if err != nil {
		return nil, err
	}
	base, err := blockadt.DecodeReport(raw)
	if err != nil {
		return nil, err
	}
	want := map[string]blockadt.Result{}
	for _, r := range base.Results {
		want[r.Config.Key()] = r
	}
	rows := ref.Results
	if o.seed != base.RootSeed {
		rep, err := blockadt.Run(ciMatrix(base.RootSeed), workers,
			blockadt.WithStore(filepath.Join(o.work, "baseline")))
		if err != nil {
			return nil, fmt.Errorf("baseline sweep: %w", err)
		}
		rows = rep.Results
	}
	bad := map[int]bool{}
	found := 0
	for i, r := range rows {
		w, ok := want[r.Config.Key()]
		if !ok {
			continue
		}
		found++
		if !sameResult(r, w) {
			bad[i] = true
		}
	}
	if found != len(want) || len(bad) > 0 {
		res.fail("SWEEP_baseline.json: %d of %d rows found, %d differ", found, len(want), len(bad))
	}
	if o.seed != base.RootSeed {
		// The rows checked are not the timed rows: count them on their own.
		res.Attempted += len(want)
		res.Failed += len(want) - found + len(bad)
		return map[int]bool{}, nil
	}
	return bad, nil
}

// noteMismatches records the reference sweep's verdict mismatches.
func noteMismatches(res *result, ref []blockadt.Result) {
	res.Scenarios = len(ref)
	res.MismatchKeys = []string{}
	for _, r := range ref {
		if !r.Match {
			res.MismatchKeys = append(res.MismatchKeys, r.Config.Key())
		}
	}
}
