package obs

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Trace context crosses the client↔server boundary as a W3C-style
// traceparent header:
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent span-id>-<2 hex flags>
//
// Version is fixed at 00; the only defined flag is 0x01 (sampled). The hub
// client injects it on every request made under a span; WrapHandler
// extracts it so the server's spans join the caller's trace.

// TraceparentHeader is the propagation header name.
const TraceparentHeader = "traceparent"

// traceFlagSampled marks the head-sampling decision on the wire.
const traceFlagSampled = 0x01

// FormatTraceparent renders the header value for an outgoing request.
func FormatTraceparent(tid TraceID, sid SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + tid.String() + "-" + sid.String() + "-" + flags
}

// ParseTraceparent parses a traceparent header value. Version 00 has
// exactly four fields; a later version is accepted if its 00-shaped prefix
// fields parse, whatever follows them (the W3C forward-compat rule).
// Malformed values return an error and the caller starts a new trace.
func ParseTraceparent(v string) (tid TraceID, sid SpanID, sampled bool, err error) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 || (parts[0] == "00" && len(parts) != 4) {
		return tid, sid, false, fmt.Errorf("obs: traceparent needs 4 fields, got %q", v)
	}
	if !isHexByte(parts[0]) || parts[0] == "ff" {
		return tid, sid, false, fmt.Errorf("obs: bad traceparent version %q", parts[0])
	}
	if tid, err = ParseTraceID(parts[1]); err != nil {
		return TraceID{}, SpanID{}, false, err
	}
	if sid, err = ParseSpanID(parts[2]); err != nil {
		return TraceID{}, SpanID{}, false, err
	}
	flags, err := strconv.ParseUint(parts[3], 16, 8)
	if err != nil || !isHexByte(parts[3]) {
		return TraceID{}, SpanID{}, false, fmt.Errorf("obs: bad traceparent flags %q", parts[3])
	}
	return tid, sid, flags&traceFlagSampled != 0, nil
}

// isHexByte reports whether s is two lowercase hex digits, the form of the
// version and flags fields.
func isHexByte(s string) bool {
	return len(s) == 2 && isLowerHex(s)
}

// isLowerHex reports whether s is only lowercase hex digits, the one form
// W3C Trace Context allows in every field.
func isLowerHex(s string) bool {
	return strings.Trim(s, "0123456789abcdef") == ""
}

// Inject stamps the span's trace context into outgoing request headers.
// No-op for nil spans or spans without a trace (tracing disabled).
func (s *Span) Inject(h http.Header) {
	if s == nil || s.tr == nil {
		return
	}
	h.Set(TraceparentHeader, FormatTraceparent(s.tr.id, s.spanID, s.tr.sampled))
}
