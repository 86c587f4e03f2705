// Package obs is the stdlib-only observability layer of the ModelHub
// reproduction: a concurrency-safe metrics registry (atomic counters,
// gauges, bounded-bucket histograms with quantile snapshots), lightweight
// hierarchical spans, structured logging via log/slog, and HTTP middleware
// that instruments and hardens the hub server.
//
// The layer is off by default and globally gated: every metric operation
// first performs one atomic load and a branch, so library hot paths (PAS
// retrieval, GEMM-backed training, DQL enumeration) pay near nothing until a
// binary opts in with Enable — modelhub-server's -metrics flag, mhbench's
// -metrics flag, or a test. Logging is likewise silent by default: the
// package-scoped slog.Logger discards records until SetLogger installs a
// real handler, keeping library packages free of stdout/stderr writes.
package obs

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// enabled is the global metrics gate. All Counter/Gauge/Histogram/Span
// operations check it first; when false they return immediately.
var enabled atomic.Bool

// Enable turns metric collection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns metric collection off. Already-recorded values remain
// readable through Snapshot.
func Disable() { enabled.Store(false) }

// Enabled reports whether metric collection is on. Instrumentation sites
// that need extra work beyond a metric update (e.g. a time.Now call) should
// guard it with Enabled.
func Enabled() bool { return enabled.Load() }

// logger is the package-scoped structured logger. It defaults to a no-op
// handler so libraries importing obs stay silent.
var logger atomic.Pointer[slog.Logger]

func init() {
	logger.Store(slog.New(discardHandler{}))
}

// Logger returns the package-scoped structured logger. The default logger
// discards everything; binaries install a real one with SetLogger.
func Logger() *slog.Logger { return logger.Load() }

// SetLogger installs the process-wide structured logger. Passing nil
// restores the silent default. The handler is wrapped so every record made
// under a traced span (via the *Context logging methods) is stamped with
// trace_id and span_id, correlating log lines with /debug/traces.
func SetLogger(l *slog.Logger) {
	if l == nil {
		logger.Store(slog.New(discardHandler{}))
		return
	}
	logger.Store(slog.New(traceHandler{inner: l.Handler()}))
}

// traceHandler decorates an slog.Handler with trace correlation: when the
// record's context carries a traced span, trace_id and span_id attributes
// are appended before the inner handler formats the line.
type traceHandler struct {
	inner slog.Handler
}

func (h traceHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if s := FromContext(ctx); s != nil && s.tr != nil {
		r.AddAttrs(
			slog.String("trace_id", s.tr.id.String()),
			slog.String("span_id", s.spanID.String()),
		)
	}
	return h.inner.Handle(ctx, r)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{inner: h.inner.WithGroup(name)}
}

// ParseLevel resolves a -log-level flag value ("debug", "info", "warn",
// "error") to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error)", s)
	}
}

// ConfigureLogging applies a binary's -log-level flag: a level installs a
// stderr text handler at that level; "" keeps the default (silent) logger.
func ConfigureLogging(level string) error {
	if level == "" {
		return nil
	}
	lvl, err := ParseLevel(level)
	if err != nil {
		return err
	}
	SetLogger(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	return nil
}

// discardHandler is a slog.Handler that drops everything. Its Enabled
// returns false, so record construction is skipped entirely.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
