package obs

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter renders Prometheus text exposition format (version 0.0.4)
// with nothing but the standard library. Errors are sticky: keep writing
// and check Err once at the end.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header emits the # HELP and # TYPE lines for a metric family. typ is
// one of counter, gauge, histogram.
func (p *PromWriter) Header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// formatLabels renders k/v pairs as {k1="v1",k2="v2"} (empty for none).
func formatLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Value emits one sample line. labels are key, value pairs.
func (p *PromWriter) Value(name string, v float64, labels ...string) {
	p.printf("%s%s %s\n", name, formatLabels(labels), formatValue(v))
}

// Histogram emits a full histogram family: cumulative _bucket lines for
// each upper bound plus +Inf, then _sum and _count. counts must hold one
// entry per bound plus a final overflow entry; bounds are in the
// metric's native unit (seconds for *_seconds). labels apply to every
// line, with le appended on buckets.
func (p *PromWriter) Histogram(name string, bounds []float64, counts []uint64, sum float64, labels ...string) {
	p.HistogramExemplars(name, bounds, counts, sum, nil, labels...)
}

// Exemplar links one histogram bucket to a concrete trace: the trace ID
// of a request that landed in the bucket, the observed value in the
// metric's native unit, and when it was observed. Rendered as the
// OpenMetrics exemplar suffix (`# {trace_id="..."} value timestamp`),
// which Prometheus scrapes when exemplar storage is enabled and other
// collectors ignore as a comment.
type Exemplar struct {
	TraceID string
	Value   float64
	Ts      time.Time
}

// HistogramExemplars is Histogram with an optional exemplar per bucket:
// ex may be nil or hold len(bounds)+1 entries (nil entries skip the
// suffix), aligned with counts.
func (p *PromWriter) HistogramExemplars(name string, bounds []float64, counts []uint64, sum float64, ex []*Exemplar, labels ...string) {
	var cum uint64
	line := func(i int, le string) {
		suffix := ""
		if i < len(ex) && ex[i] != nil {
			suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s %.3f",
				escapeLabel(ex[i].TraceID), formatValue(ex[i].Value),
				float64(ex[i].Ts.UnixMilli())/1e3)
		}
		p.printf("%s_bucket%s %d%s\n", name, formatLabels(append(labels, "le", le)), cum, suffix)
	}
	for i, b := range bounds {
		cum += counts[i]
		line(i, formatValue(b))
	}
	cum += counts[len(bounds)]
	line(len(bounds), "+Inf")
	p.printf("%s_sum%s %s\n", name, formatLabels(labels), formatValue(sum))
	p.printf("%s_count%s %d\n", name, formatLabels(labels), cum)
}

// LatencyHistogram emits a Histogram snapshot as a *_seconds histogram
// family on the LatencyBound ladder; ex is as for HistogramExemplars.
func (p *PromWriter) LatencyHistogram(name string, s HistogramSnapshot, ex []*Exemplar, labels ...string) {
	p.HistogramExemplars(name, latencyBoundsSeconds, s.Buckets[:], s.Sum.Seconds(), ex, labels...)
}

// GoRuntime emits the Go runtime gauge/counter set: goroutines, heap
// sizes, GC cycle count and cumulative pause time. ReadMemStats causes a
// brief stop-the-world, which is fine at scrape frequency.
func (p *PromWriter) GoRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Header("go_goroutines", "gauge", "Number of goroutines that currently exist.")
	p.Value("go_goroutines", float64(runtime.NumGoroutine()))
	p.Header("go_memstats_heap_alloc_bytes", "gauge", "Heap bytes allocated and still in use.")
	p.Value("go_memstats_heap_alloc_bytes", float64(ms.HeapAlloc))
	p.Header("go_memstats_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.")
	p.Value("go_memstats_heap_sys_bytes", float64(ms.HeapSys))
	p.Header("go_memstats_heap_objects", "gauge", "Number of allocated heap objects.")
	p.Value("go_memstats_heap_objects", float64(ms.HeapObjects))
	p.Header("go_memstats_next_gc_bytes", "gauge", "Heap size at which the next GC cycle runs.")
	p.Value("go_memstats_next_gc_bytes", float64(ms.NextGC))
	p.Header("go_gc_cycles_total", "counter", "Completed GC cycles.")
	p.Value("go_gc_cycles_total", float64(ms.NumGC))
	p.Header("go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	p.Value("go_gc_pause_seconds_total", float64(ms.PauseTotalNs)/1e9)
}
