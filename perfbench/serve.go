package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"blockadt/pkg/blockadt"
)

// server is one `btadt serve` subprocess on loopback.
type server struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	debug string // pprof listener base URL; empty unless traced
}

// startServer launches the btadt binary's serve command on a fresh store
// and waits until /healthz answers.
func startServer(btadt, store string, debug bool) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-addr", addr, "-store", store, "-log-level", "error"}
	s := &server{base: "http://" + addr}
	if debug {
		daddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", daddr)
		s.debug = "http://" + daddr
	}
	s.cmd = exec.Command(btadt, args...)
	s.cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however it exits.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start btadt serve: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("btadt serve did not become healthy within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM (SIGKILL after 10s) and waits for
// it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// summary is the NDJSON stream's trailing line.
type summary struct {
	Total     int    `json:"total"`
	Simulated uint64 `json:"simulated"`
}

// exchange is one POST /v1/sweeps: its timings and whether every line
// matched the library's results.
type exchange struct {
	total, ttfb time.Duration
	ok          bool
	summary     summary
	err         error
}

// post submits the matrix and reads the stream to its summary line,
// comparing each result line with want.
func post(client *http.Client, base string, body []byte, want [][]byte) exchange {
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return exchange{err: fmt.Errorf("POST /v1/sweeps: %s", resp.Status)}
	}
	x := exchange{ok: true}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	for i := 0; ; i++ {
		line, err := r.ReadBytes('\n')
		if i == 0 {
			x.ttfb = time.Since(t0)
		}
		if err != nil {
			x.err = fmt.Errorf("stream ended after %d lines: %w", i, err)
			return x
		}
		if i < len(want) {
			x.ok = x.ok && bytes.Equal(line, want[i])
			continue
		}
		var tail struct {
			Summary *summary `json:"summary"`
		}
		if err := json.Unmarshal(line, &tail); err != nil || tail.Summary == nil {
			x.err = fmt.Errorf("line %d is not the summary", i)
			return x
		}
		x.summary = *tail.Summary
		x.total = time.Since(t0)
		x.ok = x.ok && x.summary.Total == len(want)
		_, _ = io.Copy(io.Discard, r)
		return x
	}
}

// serverStats is the part of /metricsz the benchmark reads.
type serverStats struct {
	Simulated uint64                    `json:"simulated"`
	CacheHits uint64                    `json:"cacheHits"`
	Coalesced uint64                    `json:"coalesced"`
	Latencies []blockadt.LatencySummary `json:"latencies"`
}

func (s *server) stats(client *http.Client) (serverStats, error) {
	var st serverStats
	resp, err := client.Get(s.base + "/metricsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// phase sums a latency phase over outcomes (all when outcome is empty).
func (st serverStats) phase(name, outcome string) (count int, sumNS float64) {
	for _, l := range st.Latencies {
		if l.Phase == name && (outcome == "" || l.Outcome == outcome) {
			count += l.Count
			sumNS += l.SumNS
		}
	}
	return count, sumNS
}

// memStats reads the server's runtime.MemStats counters from its pprof
// heap profile header.
func (s *server) memStats(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	for _, k := range []string{"TotalAlloc", "NumGC", "GCCPUFraction"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("server heap profile lacks %s", k)
		}
	}
	return out, sc.Err()
}

// serveSetupReps is how many times serve-warm starts and fills a server;
// setup_s is the median.
const serveSetupReps = 9

// timedLatency is one request's latency and when, in the window, it
// completed.
type timedLatency struct {
	at time.Duration
	ms float64
}

// latencySlice is the span over which serve-warm takes latency
// percentiles: about 1,500 requests at 2 clients, so the p99 of each slice
// rests on some 15 requests beyond it.
const latencySlice = 5 * time.Second

// slicePercentiles is the median over full latencySlice slices of the
// window of each slice's p50 and p99. A window shorter than one slice is
// one slice.
func slicePercentiles(ls []timedLatency, window time.Duration) (p50, p99 float64) {
	n := int(window / latencySlice)
	if n == 0 {
		n = 1
	}
	slices := make([][]float64, n)
	for _, l := range ls {
		if k := int(l.at / latencySlice); k < n {
			slices[k] = append(slices[k], l.ms)
		}
	}
	var p50s, p99s []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			p50s = append(p50s, quantile(sl, 0.50))
			p99s = append(p99s, quantile(sl, 0.99))
		}
	}
	return median(p50s), median(p99s)
}

func runServe(o options) (*result, error) {
	workers := runtime.NumCPU()
	m := ciMatrix(o.seed)
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	// The reference: the library's results for the same matrix, as the
	// lines the server must stream.
	ref, err := blockadt.Run(m, workers)
	if err != nil {
		return nil, err
	}
	want := make([][]byte, len(ref.Results))
	for i, r := range ref.Results {
		if want[i], err = json.Marshal(r); err != nil {
			return nil, err
		}
		want[i] = append(want[i], '\n')
	}
	res := &result{}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: workers, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	// Set-up: start the server on a fresh store and fill it with one
	// cold sweep. Repeated; the last server is the one measured.
	var setups []float64
	var srv *server
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = startServer(o.btadt, filepath.Join(o.work, fmt.Sprintf("store-%d", i)), o.trace)
		if err != nil {
			return nil, err
		}
		fill := post(client, srv.base, body, want)
		setups = append(setups, time.Since(t0).Seconds())
		if fill.err != nil {
			srv.stop()
			return nil, fmt.Errorf("cold fill: %w", fill.err)
		}
		if !fill.ok || fill.summary.Simulated != uint64(len(want)) {
			res.fail("cold fill: lines match=%v, simulated %d of %d", fill.ok, fill.summary.Simulated, len(want))
		}
	}
	defer srv.stop()

	before, err := srv.stats(client)
	if err != nil {
		return nil, err
	}
	var mem0 map[string]float64
	if o.trace {
		if mem0, err = srv.memStats(client); err != nil {
			return nil, err
		}
	}
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}

	// The timed window: closed-loop clients, one per CPU. In a traced
	// run every other request of each client records its time to first
	// byte, so traced and untraced requests share the load.
	var (
		mu        sync.Mutex
		served    int // scenarios in correct responses
		latencies []timedLatency
		ttfbs     []float64
		reqTime   [2]time.Duration // [untraced, traced]
		reqs      [2]int
		wg        sync.WaitGroup
	)
	steal0, ticks0 := cpuTicks()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				x := post(client, srv.base, body, want)
				traced := o.trace && i%2 == 1
				mu.Lock()
				res.Attempted += len(want)
				switch {
				case x.err != nil:
					res.Failed += len(want)
					res.fail("request: %v", x.err)
				case !x.ok || x.summary.Simulated != 0:
					res.Failed += len(want)
					res.fail("request: lines match=%v, simulated %d", x.ok, x.summary.Simulated)
				default:
					served += len(want)
					latencies = append(latencies, timedLatency{time.Since(start), ms(x.total)})
					if traced {
						ttfbs = append(ttfbs, ms(x.ttfb))
					}
					reqTime[btoi(traced)] += x.total
					reqs[btoi(traced)]++
				}
				mu.Unlock()
			}
		}()
	}
	clientsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(clientsDone)
	}()

	// The server is sampled once a second: throughput, CPU per scenario
	// and peak RSS are medians over these slices, which a burst of CPU
	// steal on a shared host moves less than window totals. The partial
	// slice at the end is dropped.
	var rates, cpus, peaks []float64
	var sampleErr error
	tick := time.NewTicker(time.Second)
	prevT, prevCPU, prevServed := start, cpu0, 0
sampling:
	for {
		select {
		case <-clientsDone:
			break sampling
		case now := <-tick.C:
			cpu, err := procCPU(srv.cmd.Process.Pid)
			peak, perr := peakRSSMB(pid)
			if err = errors.Join(err, perr, resetPeakRSS(pid)); err != nil {
				sampleErr = err
				continue
			}
			mu.Lock()
			n := served
			mu.Unlock()
			if n > prevServed {
				rates = append(rates, float64(n-prevServed)/now.Sub(prevT).Seconds())
				cpus = append(cpus, ms(cpu-prevCPU)/float64(n-prevServed))
			}
			peaks = append(peaks, peak)
			prevT, prevCPU, prevServed = now, cpu, n
		}
	}
	tick.Stop()
	if sampleErr != nil {
		return nil, sampleErr
	}
	wall := time.Since(start)
	if len(rates) == 0 {
		// A window shorter than one slice is one slice.
		cpu, err := procCPU(srv.cmd.Process.Pid)
		peak, perr := peakRSSMB(pid)
		if err = errors.Join(err, perr); err != nil {
			return nil, err
		}
		rates = append(rates, float64(served)/wall.Seconds())
		cpus = append(cpus, ms(cpu-cpu0)/float64(max(served, 1)))
		peaks = append(peaks, peak)
	}
	res.StealFrac = stealFrac(steal0, ticks0)
	after, err := srv.stats(client)
	if err != nil {
		return nil, err
	}
	simulated := after.Simulated - before.Simulated
	if simulated != 0 {
		res.fail("the server simulated %d scenarios during the timed window", simulated)
	}
	noteMismatches(res, ref.Results)
	if len(res.Problems) > 20 {
		res.Problems = append(res.Problems[:20], fmt.Sprintf("... %d more", len(res.Problems)-20))
	}

	p50, p99 := slicePercentiles(latencies, time.Duration(o.seconds)*time.Second)
	if !o.trace {
		res.set("setup_s", median(setups), "s")
		res.set("scenarios_per_s", median(rates), "1/s")
		res.set("cpu_ms_per_scenario", median(cpus), "ms")
		res.set("request_ms_p50", p50, "ms")
		res.set("peak_rss_mb", median(peaks), "MB")
		return res, nil
	}

	res.set("request_ms_p99", p99, "ms")

	n0, q0 := before.phase("queue", "")
	n1, q1 := after.phase("queue", "")
	res.set("blockadt.queue_ms", (q1-q0)/1e6/float64(max(n1-n0, 1)), "ms")
	// Nothing is simulated in the window: the simulate phase is the
	// set-up's cold fill, inside the same server.
	ns, sims := after.phase("simulate", blockadt.SpanSimulated)
	res.set("blockadt.simulate_phase_ms", sims/1e6/float64(max(ns, 1)), "ms")
	_, t0 := before.phase("total", "")
	_, t1 := after.phase("total", "")
	// Each in-flight request runs its own pool of `workers` slots.
	res.set("parallel.busy_frac", (t1-t0)/(float64(wall)*float64(workers*workers)), "frac")
	hits := after.CacheHits - before.CacheHits
	all := hits + simulated + after.Coalesced - before.Coalesced
	res.set("serve.cache_hit_frac", float64(hits)/float64(max(all, 1)), "frac")
	res.set("serve.simulated", float64(simulated), "count")
	res.set("serve.ttfb_ms", median(ttfbs), "ms")
	perScenario := func(class int) float64 {
		// Closed loop: each client completes one request per request time.
		return float64(workers*len(want)) / (reqTime[class].Seconds() / float64(max(reqs[class], 1)))
	}
	setTraceOverhead(res, perScenario(0), perScenario(1))
	mem1, err := srv.memStats(client)
	if err != nil {
		return nil, err
	}
	passes := float64(reqs[0] + reqs[1])
	res.set("runtime.gc_cpu_frac", mem1["GCCPUFraction"], "frac")
	res.set("runtime.gc_cycles", (mem1["NumGC"]-mem0["NumGC"])/passes, "count")
	res.set("runtime.alloc_mb", (mem1["TotalAlloc"]-mem0["TotalAlloc"])/1e6/passes, "MB")

	// Per-layer costs on this workload's scenarios, checked against the
	// streamed (= library) results.
	configs, err := m.Configs()
	if err != nil {
		return nil, err
	}
	if err := decompose(res, m, configs, ref, o.work); err != nil {
		return nil, err
	}
	return res, nil
}
