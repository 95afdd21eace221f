package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hdfe/internal/obs/prof"
)

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// tailLatency is latency_p95_ms over latencies in completion order (see
// tailQ); it also returns the number of groups.
func tailLatency(lat []float64) (float64, int) {
	k := max(1, len(lat)/tailGroup)
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(append([]float64(nil), lat[i*len(lat)/k:(i+1)*len(lat)/k]...), tailQ)
	}
	return median(qs), k
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// window brackets a measured interval: wall clock, process CPU, heap
// allocation, GC cycles and the runtime's GC pause histogram.
type window struct {
	start   time.Time
	cpu     time.Duration
	mem     runtime.MemStats
	rt      prof.RuntimeSnapshot
	elapsed time.Duration
	cpuUsed time.Duration
	alloc   uint64
	gcs     uint32
	pause   time.Duration
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.rt = prof.NewCollector().Read()
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) close() {
	w.elapsed = time.Since(w.start)
	w.cpuUsed = cpuTime() - w.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rt := prof.NewCollector().Read()
	w.alloc = m.TotalAlloc - w.mem.TotalAlloc
	w.gcs = m.NumGC - w.mem.NumGC
	w.pause = prof.GCPauseP99Between(w.rt, rt)
}

// setRuntime reports the window's runtime-layer metrics per record.
func (w *window) setRuntime(rep *report, records int) {
	if records == 0 {
		return
	}
	rep.set("runtime.alloc_bytes_per_record", float64(w.alloc)/float64(records))
	rep.set("runtime.gc_cycles_per_1k_records", 1000*float64(w.gcs)/float64(records))
	rep.set("runtime.gc_pause_p99_us", float64(w.pause.Nanoseconds())/1e3)
}

// cpuPerRecordUs is the window's process CPU per record, in µs.
func (w *window) cpuPerRecordUs(records int) float64 {
	if records == 0 {
		return 0
	}
	return float64(w.cpuUsed.Nanoseconds()) / 1e3 / float64(records)
}

// splitmix derives independent seeds from the workload seed.
func splitmix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Seed streams: every source of randomness in a run derives from the
// workload seed through one of these.
const (
	streamEncoder = 1   // serving deployments' encoder seed
	streamTrace   = 2   // serve.Config.TraceSeed (trace sampling, profiler jitter)
	streamOrder   = 3   // request order
	streamFit     = 100 // fit-loocv encoder seeds: streamFit + k
)

// sortBy sorts xs by key, ascending.
func sortBy[T any](xs []T, key func(T) int64) {
	sort.Slice(xs, func(i, j int) bool { return key(xs[i]) < key(xs[j]) })
}
