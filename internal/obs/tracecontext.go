package obs

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
)

// TraceContext is a W3C trace-context identity: the 128-bit trace ID
// shared by every span in a distributed trace, the 64-bit ID of one
// span, the sampled flags byte, and the pass-through tracestate. It is
// the wire-interoperable identity layered onto the tracer's existing
// monotonic request IDs — the monotonic ID stays the feedback-join
// handle, the TraceContext is what gateways, collectors, and dashboards
// correlate on.
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
	State   string // raw tracestate header, passed through untouched
	Remote  bool   // adopted from an inbound traceparent
}

// FlagSampled is the traceparent sampled bit.
const FlagSampled byte = 0x01

// Valid reports whether the context carries usable identity: a non-zero
// trace ID and a non-zero span ID, per the W3C spec.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// TraceIDString renders the trace ID as 32 lowercase hex characters.
func (tc TraceContext) TraceIDString() string { return hex.EncodeToString(tc.TraceID[:]) }

// SpanIDString renders the span ID as 16 lowercase hex characters.
func (tc TraceContext) SpanIDString() string { return hex.EncodeToString(tc.SpanID[:]) }

// Traceparent renders the version-00 traceparent header value.
func (tc TraceContext) Traceparent() string {
	var b [traceparentLen]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], tc.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], tc.SpanID[:])
	b[52] = '-'
	hex.Encode(b[53:], []byte{tc.Flags})
	return string(b[:])
}

// traceparent field layout: 2 version chars, then '-' separated 32-char
// trace ID, 16-char span ID, and 2-char flags — 55 chars for version 00.
const traceparentLen = 55

var (
	errTraceparentLen     = errors.New("obs: traceparent is not 55 characters")
	errTraceparentVersion = errors.New("obs: traceparent version ff is invalid")
	errTraceparentHex     = errors.New("obs: traceparent field is not lowercase hex")
	errTraceparentSep     = errors.New("obs: traceparent separators misplaced")
	errTraceparentZeroID  = errors.New("obs: traceparent trace or parent ID is all zero")
)

// isLowerHex reports whether s is entirely lowercase hex. The W3C spec
// mandates lowercase; uppercase IDs must be rejected, not normalized,
// or two proxies could disagree on the same trace's identity.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ParseTraceparent validates an inbound traceparent header per the W3C
// trace-context spec and returns the upstream identity. A future
// (non-00) version is accepted when its first four fields parse and any
// extra content is '-'-appended, per the spec's forward-compatibility
// rule. Any malformation is an error: callers fall back to a freshly
// generated trace identity and never fail the request over bad
// telemetry headers.
func ParseTraceparent(h string) (TraceContext, error) {
	if len(h) < traceparentLen {
		return TraceContext{}, errTraceparentLen
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, errTraceparentSep
	}
	ver, traceID, spanID, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if !isLowerHex(ver) || !isLowerHex(traceID) || !isLowerHex(spanID) || !isLowerHex(flags) {
		return TraceContext{}, errTraceparentHex
	}
	if ver == "ff" {
		return TraceContext{}, errTraceparentVersion
	}
	switch {
	case ver == "00" && len(h) != traceparentLen:
		return TraceContext{}, errTraceparentLen
	case ver != "00" && len(h) > traceparentLen && h[traceparentLen] != '-':
		return TraceContext{}, errTraceparentLen
	}
	var tc TraceContext
	hex.Decode(tc.TraceID[:], []byte(traceID))
	hex.Decode(tc.SpanID[:], []byte(spanID))
	var fb [1]byte
	hex.Decode(fb[:], []byte(flags))
	tc.Flags = fb[0]
	if tc.TraceID == [16]byte{} || tc.SpanID == [8]byte{} {
		return TraceContext{}, errTraceparentZeroID
	}
	tc.Remote = true
	return tc, nil
}

// splitmix64 is the SplitMix64 output function — the same mixer
// internal/rng seeds xoshiro with. It turns the tracer's monotonic
// counter into well-distributed 64-bit ID halves with one atomic add
// per trace and no shared rng state on the hot path.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newTraceID derives a 128-bit trace ID from the tracer seed and a
// monotonic counter value. Never all-zero (the spec forbids it).
func newTraceID(seed, n uint64) (id [16]byte) {
	h1 := splitmix64(seed + 2*n)
	h2 := splitmix64(h1 ^ (seed + 2*n + 1))
	binary.BigEndian.PutUint64(id[:8], h1)
	binary.BigEndian.PutUint64(id[8:], h2)
	if id == [16]byte{} {
		id[15] = 1
	}
	return id
}

// newSpanID derives a 64-bit span ID from the tracer seed and a
// counter/salt pair. Never all-zero.
func newSpanID(seed, n uint64) (id [8]byte) {
	binary.BigEndian.PutUint64(id[:], splitmix64(seed^splitmix64(n)))
	if id == [8]byte{} {
		id[7] = 1
	}
	return id
}
