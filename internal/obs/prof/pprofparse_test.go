package prof

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime"
	rpprof "runtime/pprof"
	"testing"
)

// --- synthetic profile encoder ---------------------------------------------
//
// Enough of the profile.proto writer to build deterministic fixtures: the
// tests that exercise Top/Delta need exact sample values and stacks, which
// a live capture cannot provide.

type synthSample struct {
	stack  []string // leaf first
	values []int64
}

type synthBuilder struct {
	strings []string
	strIdx  map[string]uint64
}

func newSynthBuilder() *synthBuilder {
	// Index 0 must be the empty string per the spec.
	return &synthBuilder{strings: []string{""}, strIdx: map[string]uint64{"": 0}}
}

func (b *synthBuilder) str(s string) uint64 {
	if i, ok := b.strIdx[s]; ok {
		return i
	}
	i := uint64(len(b.strings))
	b.strings = append(b.strings, s)
	b.strIdx[s] = i
	return i
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendKey(dst []byte, field, wire int) []byte {
	return appendUvarint(dst, uint64(field)<<3|uint64(wire))
}

func appendVarintField(dst []byte, field int, v uint64) []byte {
	dst = appendKey(dst, field, 0)
	return appendUvarint(dst, v)
}

func appendBytesField(dst []byte, field int, payload []byte) []byte {
	dst = appendKey(dst, field, 2)
	dst = appendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// encodeSynth builds a gzipped profile.proto blob. Each distinct function
// name gets one Function and one Location (ids assigned in first-seen
// order); samples reference locations leaf-first.
func encodeSynth(t *testing.T, types []ValueType, samples []synthSample, durationNanos int64) []byte {
	t.Helper()
	b := newSynthBuilder()
	fnID := map[string]uint64{}
	var fnOrder []string
	locOf := func(name string) uint64 {
		if id, ok := fnID[name]; ok {
			return id
		}
		id := uint64(len(fnOrder) + 1)
		fnID[name] = id
		fnOrder = append(fnOrder, name)
		return id
	}

	var msg []byte
	for _, vt := range types {
		var vtMsg []byte
		vtMsg = appendVarintField(vtMsg, 1, b.str(vt.Type))
		vtMsg = appendVarintField(vtMsg, 2, b.str(vt.Unit))
		msg = appendBytesField(msg, 1, vtMsg)
	}
	for _, s := range samples {
		var sMsg []byte
		var locs []byte
		for _, name := range s.stack {
			locs = appendUvarint(locs, locOf(name))
		}
		sMsg = appendBytesField(sMsg, 1, locs) // packed location ids
		var vals []byte
		for _, v := range s.values {
			vals = appendUvarint(vals, uint64(v))
		}
		sMsg = appendBytesField(sMsg, 2, vals) // packed values
		msg = appendBytesField(msg, 2, sMsg)
	}
	for _, name := range fnOrder {
		id := fnID[name]
		var lineMsg []byte
		lineMsg = appendVarintField(lineMsg, 1, id) // function_id
		var locMsg []byte
		locMsg = appendVarintField(locMsg, 1, id) // location id == function id
		locMsg = appendBytesField(locMsg, 4, lineMsg)
		msg = appendBytesField(msg, 4, locMsg)

		var fnMsg []byte
		fnMsg = appendVarintField(fnMsg, 1, id)
		fnMsg = appendVarintField(fnMsg, 2, b.str(name))
		msg = appendBytesField(msg, 5, fnMsg)
	}
	for _, s := range b.strings {
		msg = appendBytesField(msg, 6, []byte(s))
	}
	if durationNanos != 0 {
		msg = appendVarintField(msg, 10, uint64(durationNanos))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(msg); err != nil {
		t.Fatalf("gzip: %v", err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}
	return gz.Bytes()
}

var cpuTypes = []ValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}}

// ---------------------------------------------------------------------------

func TestParseSynthetic(t *testing.T) {
	blob := encodeSynth(t, cpuTypes, []synthSample{
		{stack: []string{"encode.Record", "serve.handle"}, values: []int64{3, 3000}},
		{stack: []string{"hv.Bind", "encode.Record", "serve.handle"}, values: []int64{1, 1000}},
	}, 250e6)
	p, err := Parse(blob)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.SampleTypes) != 2 || p.SampleTypes[1].Type != "cpu" || p.SampleTypes[1].Unit != "nanoseconds" {
		t.Fatalf("sample types = %+v", p.SampleTypes)
	}
	if p.DurationNanos != 250e6 {
		t.Fatalf("duration = %d", p.DurationNanos)
	}
	if got := p.ValueIndex("cpu"); got != 1 {
		t.Fatalf("ValueIndex(cpu) = %d", got)
	}
	if got := p.ValueIndex("no-such-type"); got != 1 {
		t.Fatalf("ValueIndex fallback = %d, want last column", got)
	}

	top := p.Top("cpu", 10)
	if len(top) != 3 {
		t.Fatalf("top = %+v", top)
	}
	// encode.Record: flat 3000 (leaf of sample 1), cum 4000 (both samples).
	if top[0].Func != "encode.Record" || top[0].Flat != 3000 || top[0].Cum != 4000 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Func != "hv.Bind" || top[1].Flat != 1000 || top[1].Cum != 1000 {
		t.Fatalf("top[1] = %+v", top[1])
	}
	// serve.handle appears in every stack but never as leaf.
	if top[2].Func != "serve.handle" || top[2].Flat != 0 || top[2].Cum != 4000 {
		t.Fatalf("top[2] = %+v", top[2])
	}
	if got, want := top[0].FlatFrac, 0.75; got != want {
		t.Fatalf("FlatFrac = %v, want %v", got, want)
	}
}

func TestTopRecursionCountsCumOnce(t *testing.T) {
	blob := encodeSynth(t, cpuTypes, []synthSample{
		{stack: []string{"f", "g", "f"}, values: []int64{1, 100}},
	}, 0)
	p, err := Parse(blob)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, e := range p.Top("cpu", 0) {
		if e.Cum != 100 {
			t.Fatalf("%s cum = %d, want 100 (recursive frames deduped)", e.Func, e.Cum)
		}
	}
}

func TestTopLimitAndTies(t *testing.T) {
	blob := encodeSynth(t, cpuTypes, []synthSample{
		{stack: []string{"b"}, values: []int64{1, 50}},
		{stack: []string{"a"}, values: []int64{1, 50}},
		{stack: []string{"c"}, values: []int64{1, 200}},
	}, 0)
	p, err := Parse(blob)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	top := p.Top("cpu", 2)
	if len(top) != 2 || top[0].Func != "c" || top[1].Func != "a" {
		t.Fatalf("top = %+v, want [c a] (ties broken by name)", top)
	}
}

func TestParseRawUncompressed(t *testing.T) {
	gz := encodeSynth(t, cpuTypes, []synthSample{{stack: []string{"x"}, values: []int64{1, 10}}}, 0)
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(raw.Bytes())
	if err != nil {
		t.Fatalf("Parse raw: %v", err)
	}
	if len(p.Top("cpu", 0)) != 1 {
		t.Fatalf("raw parse lost samples")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte{0x1f, 0x8b, 0xff}); err == nil {
		t.Fatal("want error for truncated gzip")
	}
	// Wire type 3 (group start) is unsupported.
	if _, err := Parse([]byte{0x0b}); err == nil {
		t.Fatal("want error for unsupported wire type")
	}
}

func TestDelta(t *testing.T) {
	curr := []TopEntry{
		{Func: "encode.Record", FlatFrac: 0.6},
		{Func: "hv.Bind", FlatFrac: 0.2},
		{Func: "brandNew", FlatFrac: 0.1},
	}
	base := []TopEntry{
		{Func: "encode.Record", FlatFrac: 0.3},
		{Func: "hv.Bind", FlatFrac: 0.4},
	}
	d := Delta(curr, base)
	if len(d) != 3 {
		t.Fatalf("delta = %+v", d)
	}
	if d[0].Func != "encode.Record" || d[0].Ratio != 2 {
		t.Fatalf("d[0] = %+v, want encode.Record ratio 2", d[0])
	}
	if d[1].Func != "hv.Bind" || d[1].Ratio != 0.5 {
		t.Fatalf("d[1] = %+v", d[1])
	}
	if d[2].Func != "brandNew" || d[2].Ratio != 0 || d[2].BaseFrac != 0 {
		t.Fatalf("d[2] = %+v, want new function with ratio 0", d[2])
	}
}

// liveHeap holds TestParseLiveProfiles's live allocation.
var liveHeap []byte

// TestParseLiveProfiles parses real runtime/pprof output — the wire format
// the parser exists for — rather than only the synthetic encoder above.
func TestParseLiveProfiles(t *testing.T) {
	// The heap profile holds only sampled allocations still live at the
	// last GC; at the default 512 KiB sampling rate a test that allocates
	// little may have none. Sample every allocation, keep one live across
	// a GC, and the profile is guaranteed a function to fold.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	liveHeap = make([]byte, 64<<10) // a package variable, so it is on the heap
	defer func() { liveHeap = nil }()
	runtime.GC()
	var buf bytes.Buffer
	if err := rpprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatalf("heap profile: %v", err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse heap: %v", err)
	}
	found := false
	for _, st := range p.SampleTypes {
		if st.Type == "inuse_space" {
			found = true
		}
	}
	if !found {
		t.Fatalf("heap sample types = %+v, want inuse_space", p.SampleTypes)
	}
	if len(p.Top("inuse_space", 10)) == 0 {
		t.Fatal("live heap profile folded to zero functions")
	}

	buf.Reset()
	if err := rpprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatalf("goroutine profile: %v", err)
	}
	gp, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse goroutine: %v", err)
	}
	if len(gp.Top("goroutine", 10)) == 0 {
		t.Fatal("live goroutine profile folded to zero functions")
	}
}
