package prof

import (
	"runtime/metrics"
	"sort"
	"time"
)

// Watchdog names (also the Prometheus label values and the
// "watchdog:<name>" capture triggers).
const (
	WatchdogGoroutines = "goroutines"
	WatchdogHeapSlope  = "heap_slope"
	WatchdogGCPause    = "gc_pause"
)

// WatchdogConfig tunes the three runtime watchdogs. The zero value uses
// the defaults noted on each field; Disable turns the tick loop off.
type WatchdogConfig struct {
	// Disable turns all watchdogs off.
	Disable bool
	// Tick is the sampling period (default 1s).
	Tick time.Duration
	// Window is how many ticks the sample ring holds (default 60 — one
	// minute of history at the default tick).
	Window int
	// GoroutineHighWater fires the goroutine watchdog on an absolute
	// count (default 10000; negative disables the goroutine watchdog).
	GoroutineHighWater int
	// GoroutineLeakGrowth fires the goroutine watchdog when the count
	// grows by this much across a mostly-monotonic full window — the
	// leak signature (default 512).
	GoroutineLeakGrowth int
	// HeapSlopeBytesPerSec fires the heap watchdog when heap in-use
	// grows at or above this sustained rate across the window
	// (default 32 MiB/s; negative disables).
	HeapSlopeBytesPerSec float64
	// GCPauseP99 fires the GC watchdog when the p99 pause over the
	// window reaches it (default 50ms; negative disables).
	GCPauseP99 time.Duration
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.Window <= 1 {
		c.Window = 60
	}
	if c.GoroutineHighWater == 0 {
		c.GoroutineHighWater = 10000
	}
	if c.GoroutineLeakGrowth <= 0 {
		c.GoroutineLeakGrowth = 512
	}
	if c.HeapSlopeBytesPerSec == 0 {
		c.HeapSlopeBytesPerSec = 32 << 20
	}
	if c.GCPauseP99 == 0 {
		c.GCPauseP99 = 50 * time.Millisecond
	}
	return c
}

// wdSample is one tick's runtime reading.
type wdSample struct {
	at         time.Time
	goroutines int
	heapInuse  uint64
	gcPauses   *metrics.Float64Histogram // cumulative, cloned
}

// WatchdogState is one watchdog's queryable status, served in the
// /debug/prof JSON and exported as hdfe_prof_watchdog_* families.
type WatchdogState struct {
	Name string `json:"name"`
	// Firing is true while the condition holds; transitions are
	// edge-triggered into the log.
	Firing bool `json:"firing"`
	// Since is the last ok->firing transition (zero: never fired).
	Since time.Time `json:"since"`
	// Value is the last evaluated signal (goroutine count, heap slope in
	// bytes/sec, GC pause p99 in seconds) against Threshold.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Triggers counts ok->firing transitions since boot.
	Triggers uint64 `json:"triggers_total"`
	// LastCaptureID is the ring ID of the profile captured at the last
	// firing edge (0: none).
	LastCaptureID uint64 `json:"last_capture_id,omitempty"`
}

// watchdogs holds the sample ring and per-watchdog states. All mutation
// happens on the profiler loop goroutine; states are copied out under
// the profiler's watchdog mutex for /debug/prof and /metrics readers.
type watchdogs struct {
	p       *Profiler
	cfg     WatchdogConfig
	samples []wdSample // ring, oldest first once full
	states  map[string]*WatchdogState
}

func newWatchdogs(p *Profiler) *watchdogs {
	w := &watchdogs{
		p:   p,
		cfg: p.cfg.Watchdog,
		states: map[string]*WatchdogState{
			WatchdogGoroutines: {Name: WatchdogGoroutines, Threshold: float64(p.cfg.Watchdog.GoroutineHighWater)},
			WatchdogHeapSlope:  {Name: WatchdogHeapSlope, Threshold: p.cfg.Watchdog.HeapSlopeBytesPerSec},
			WatchdogGCPause:    {Name: WatchdogGCPause, Threshold: p.cfg.Watchdog.GCPauseP99.Seconds()},
		},
	}
	return w
}

// WatchdogStates snapshots every watchdog, sorted by name for stable
// JSON and metric output.
func (p *Profiler) WatchdogStates() []WatchdogState {
	p.wdMu.Lock()
	defer p.wdMu.Unlock()
	out := make([]WatchdogState, 0, len(p.wd.states))
	for _, st := range p.wd.states {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// tick takes one sample and re-evaluates every watchdog. Runs on the
// profiler loop goroutine.
func (w *watchdogs) tick() {
	w.p.metaMu.Lock()
	s := w.p.coll.Read()
	w.p.metaMu.Unlock()
	smp := wdSample{
		at:         time.Now(),
		goroutines: s.Goroutines,
		heapInuse:  s.HeapInuseBytes,
		gcPauses:   cloneHist(s.GCPauses),
	}
	if len(w.samples) >= w.cfg.Window {
		copy(w.samples, w.samples[1:])
		w.samples[len(w.samples)-1] = smp
	} else {
		w.samples = append(w.samples, smp)
	}

	if w.cfg.GoroutineHighWater > 0 {
		v, firing := evalGoroutines(w.samples, w.cfg)
		w.transition(WatchdogGoroutines, v, firing, KindGoroutine)
	}
	if w.cfg.HeapSlopeBytesPerSec > 0 {
		v, firing := evalHeapSlope(w.samples, w.cfg)
		w.transition(WatchdogHeapSlope, v, firing, KindHeap)
	}
	if w.cfg.GCPauseP99 > 0 {
		v, firing := evalGCPause(w.samples, w.cfg)
		w.transition(WatchdogGCPause, v, firing, KindHeap)
	}
}

// evalGoroutines fires on an absolute high-water count or on the leak
// signature: net growth of at least GoroutineLeakGrowth across a full
// window in which at least three quarters of the steps were
// non-decreasing. The clear condition keeps half the growth threshold as
// hysteresis so a leak oscillating at the boundary logs once, not every
// tick.
func evalGoroutines(samples []wdSample, cfg WatchdogConfig) (value float64, firing bool) {
	cur := samples[len(samples)-1].goroutines
	value = float64(cur)
	if cur >= cfg.GoroutineHighWater {
		return value, true
	}
	if len(samples) < cfg.Window {
		return value, false
	}
	lowest := samples[0].goroutines
	up := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].goroutines < lowest {
			lowest = samples[i].goroutines
		}
		if samples[i].goroutines >= samples[i-1].goroutines {
			up++
		}
	}
	growth := cur - lowest
	if growth >= cfg.GoroutineLeakGrowth && up*4 >= (len(samples)-1)*3 {
		return value, true
	}
	return value, false
}

// evalHeapSlope fires when heap in-use grows at a sustained rate across
// at least half a window of history.
func evalHeapSlope(samples []wdSample, cfg WatchdogConfig) (value float64, firing bool) {
	if len(samples) < 2 || len(samples) < cfg.Window/2 {
		return 0, false
	}
	first, last := samples[0], samples[len(samples)-1]
	elapsed := last.at.Sub(first.at).Seconds()
	if elapsed <= 0 {
		return 0, false
	}
	slope := (float64(last.heapInuse) - float64(first.heapInuse)) / elapsed
	return slope, slope >= cfg.HeapSlopeBytesPerSec
}

// evalGCPause fires when the p99 GC pause across the window reaches the
// threshold (the pause histograms are cumulative; the window delta is
// what the p99 is taken over).
func evalGCPause(samples []wdSample, cfg WatchdogConfig) (value float64, firing bool) {
	if len(samples) < 2 {
		return 0, false
	}
	p99 := gcPauseP99Delta(samples[0].gcPauses, samples[len(samples)-1].gcPauses)
	return p99.Seconds(), p99 >= cfg.GCPauseP99
}

// transition applies edge-triggering: the first tick a condition holds
// captures evidence (the profile kind that explains the anomaly) out of
// cycle and logs one warning; the first tick it clears logs recovery.
// Capture first, then fire: a transition is published to WatchdogStates
// only after its capture and log line exist, and Firing, Since, Triggers
// and LastCaptureID are published together, so a reader that sees a
// firing watchdog also sees the evidence it names.
func (w *watchdogs) transition(name string, value float64, firing bool, captureKind string) {
	w.p.wdMu.Lock()
	st := w.states[name]
	wasFiring := st.Firing
	st.Value = value
	threshold := st.Threshold
	w.p.wdMu.Unlock()

	switch {
	case firing && !wasFiring:
		since := time.Now()
		var captureID uint64
		meta, err := w.p.CaptureSnapshot(captureKind, "watchdog:"+name)
		if err == nil {
			captureID = meta.ID
		}
		w.p.cfg.Logger.Warn("runtime watchdog firing",
			"watchdog", name, "value", value, "threshold", threshold,
			"capture_id", captureID, "capture_kind", captureKind)
		w.p.wdMu.Lock()
		st.Firing = true
		st.Since = since
		st.Triggers++
		if err == nil {
			st.LastCaptureID = captureID
		}
		w.p.wdMu.Unlock()
	case !firing && wasFiring:
		w.p.cfg.Logger.Info("runtime watchdog recovered",
			"watchdog", name, "value", value, "threshold", threshold)
		w.p.wdMu.Lock()
		st.Firing = false
		w.p.wdMu.Unlock()
	}
}
