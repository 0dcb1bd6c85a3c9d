package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dronedse/parallelx"
)

// highSteal is the steal share above which a run is flagged as noisy. The
// run is still reported: a flag, never a silent drop.
const highSteal = 0.10

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// heapRetainedMB collects garbage and returns the live heap in MiB: the
// memory the process still holds for its results.
func heapRetainedMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuTicks is one /proc/stat "cpu" line: the steal column and the total.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user, so stop at steal.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the machine-wide share of CPU time stolen by the
// hypervisor between two samples (NaN when /proc/stat is unreadable).
func stealShare(a, b cpuTicks, okA, okB bool) float64 {
	if !okA || !okB || b.total <= a.total {
		return math.NaN()
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostInfo is the host and noise record printed with every result.
type hostInfo struct {
	NProc      int
	GOMAXPROCS int
	Pool       int
	GoVersion  string
	CPUModel   string
	StealShare float64
}

func newHostInfo(steal float64) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Pool:       parallelx.PoolSize(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StealShare: steal,
	}
}

func (h hostInfo) String() string {
	s := fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d pool=%d go=%s cpu=%q steal=%.1f%%",
		h.NProc, h.GOMAXPROCS, h.Pool, h.GoVersion, h.CPUModel, 100*h.StealShare)
	if h.StealShare > highSteal {
		s += fmt.Sprintf(" HIGH-STEAL (above %.0f%%: treat this run's timings as noisy)", 100*highSteal)
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
