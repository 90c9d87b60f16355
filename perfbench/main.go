// Command perfbench is the repository benchmark. It drives only the
// public façade (blockadt/pkg/blockadt) and the btadt binary, so the
// layers behind the façade can be rebuilt without editing it.
//
// Workloads (see README.md for why each was chosen):
//
//	sweep-ci    blockadt.Run of the CI matrix × three topologies, fresh run store per sweep
//	sweep-long  blockadt.Run of 240-block histories, no run store
//	serve-warm  closed-loop clients POSTing the CI matrix to a warm `btadt serve`
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload sweep-ci --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. A human-readable
// summary, the host fingerprint and the keys of every scenario whose
// verdict missed its expected level go to standard error, and the full
// record is appended to <work>/records.ndjson.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	btadt    string // the btadt binary serve-warm starts
	root     string // the repository checkout (holds SWEEP_baseline.json)
	work     string // scratch directory for stores and records
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark contract fixes.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is what a workload measured: the contract's output plus the
// evidence behind it.
type result struct {
	output
	// Problems names every correctness check that failed.
	Problems []string `json:"problems,omitempty"`
	// Scenarios and MismatchKeys give verdict_mismatch_frac: the keys of
	// the reference sweep's scenarios whose measured level differs from
	// the expected one, reported as measured.
	Scenarios    int      `json:"scenarios"`
	MismatchKeys []string `json:"mismatchKeys"`
	// StealFrac is the machine's CPU steal share during the timed window.
	StealFrac float64 `json:"stealFrac"`
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		// JSON has no NaN: a metric without data is a failed run.
		r.fail("metric %s has no value (%v): the window measured too little", name, value)
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// record is one line of records.ndjson. Records from different host
// fingerprints are never compared (see compare.go).
type record struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Time     string `json:"time"`
	result
}

var workloads = map[string]func(options) (*result, error){
	"sweep-ci":   func(o options) (*result, error) { return runSweep(o, sweepCI) },
	"sweep-long": func(o options) (*result, error) { return runSweep(o, sweepLong) },
	"serve-warm": runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sweep-ci, sweep-long or serve-warm")
	flag.Uint64Var(&o.seed, "seed", 42, "root seed every scenario derives from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer (traced) run, 0 = end-to-end run")
	flag.StringVar(&o.btadt, "btadt", "", "path to the btadt binary (serve-warm)")
	flag.StringVar(&o.root, "root", ".", "repository checkout")
	flag.StringVar(&o.work, "work", ".bench_build/perfbench", "scratch directory")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have sweep-ci, sweep-long, serve-warm)", o.workload)
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	records := filepath.Join(o.work, "records.ndjson")
	o.work = scratch

	res, err := w(o)
	if err != nil {
		return err
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	if o.trace {
		res.set("verdict_mismatch_frac", float64(len(res.MismatchKeys))/float64(max(res.Scenarios, 1)), "frac")
	}
	rec := record{
		Host: fingerprint(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Time: time.Now().UTC().Format(time.RFC3339), result: *res,
	}
	summarize(os.Stderr, rec)
	if err := appendRecord(records, rec); err != nil {
		return err
	}
	line, err := json.Marshal(res.output)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints the run for a human: fingerprint, every metric with
// its unit, failed_frac, verdict_mismatch_frac and the mismatching keys.
func summarize(w io.Writer, rec record) {
	fmt.Fprintf(w, "host: %s\n", rec.Host)
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v: correct=%v attempted=%d failed=%d steal=%.3f\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.StealFrac)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6g frac\n", "failed_frac", float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	fmt.Fprintf(w, "  %-28s %14.6g frac (%d of %d scenarios)\n", "verdict_mismatch_frac",
		float64(len(rec.MismatchKeys))/float64(max(rec.Scenarios, 1)), len(rec.MismatchKeys), rec.Scenarios)
	for _, key := range rec.MismatchKeys {
		fmt.Fprintf(w, "    mismatch %s\n", key)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", strings.TrimSpace(p))
	}
}
