package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine a record was measured on. Two records are
// comparable only when their fingerprints are equal.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (h host) String() string {
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU is another process's user+system CPU time, from
// /proc/<pid>/stat fields 14 and 15.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB; pid "self"
// reads this process.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat. The steal share of a window says how much of the host the
// hypervisor gave to other guests while it ran.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealFrac is the steal share of the ticks since (steal0, total0).
func stealFrac(steal0, total0 uint64) float64 {
	steal, total := cpuTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// resetPeakRSS restarts a process's VmHWM at its current resident set,
// so the next peakRSSMB reads the peak of what ran in between.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// runtimeStats samples the Go runtime counters the runtime.* per-layer
// metrics difference over a window.
type runtimeStats struct {
	gcCycles   uint64
	allocBytes uint64
	gcCPU      float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	return runtimeStats{
		gcCycles:   runtimeSamples[0].Value.Uint64(),
		allocBytes: runtimeSamples[1].Value.Uint64(),
		gcCPU:      runtimeSamples[2].Value.Float64(),
	}
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q * float64(len(s))))
	return s[min(max(i-1, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
