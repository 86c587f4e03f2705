package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero-cost rule: when
// metrics are disabled, Add is one atomic load plus a branch.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op when metrics are disabled or the
// receiver is nil.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (readable even while disabled).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer level that can move both ways (bytes cached, requests
// in flight).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the gauge's current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a float-valued level (loss, examples/sec), stored as
// float64 bits in a uint64 for lock-free updates.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores the gauge's value.
func (g *FloatGauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the gauge's current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of every histogram: exponential
// boundaries from histStart doubling per bucket, plus one overflow bucket.
// 1µs × 2^39 ≈ 6.1 days, so any realistic duration or size lands in-range.
const histBuckets = 40

// histStart is the upper bound of the first bucket.
const histStart = 1e-6

// histBounds[i] is the inclusive upper bound of bucket i.
var histBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	v := histStart
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a bounded-bucket histogram with lock-free observation.
// Buckets are fixed at construction (exponential, base 2), so Observe never
// allocates and concurrent writers only touch atomics.
type Histogram struct {
	counts  [histBuckets + 1]atomic.Int64 // last bucket = overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	maxBits atomic.Uint64
}

// Observe records one value (typically seconds or bytes). Values below the
// first boundary land in bucket 0. No-op when metrics are disabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.counts[bucketIdx(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Time starts a timer and returns a function that observes the elapsed
// seconds when called. When metrics are disabled it returns a no-op without
// reading the clock.
func (h *Histogram) Time() func() {
	if h == nil || !enabled.Load() {
		return func() {}
	}
	t0 := time.Now()
	return func() { h.Observe(time.Since(t0).Seconds()) }
}

// bucketIdx locates the bucket of v by binary search over the fixed bounds.
func bucketIdx(v float64) int {
	lo, hi := 0, histBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= histBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // histBuckets = overflow
}

// HistogramSnapshot summarizes a histogram at one instant. Quantiles are
// upper-bound estimates taken from the bucket boundaries.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot reads the histogram's current summary. Concurrent writers may
// land between the count and bucket reads; the summary is approximate by
// design, never torn at the word level.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [histBuckets + 1]int64
	var total int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{
		Count: total,
		Sum:   math.Float64frombits(h.sumBits.Load()),
		Max:   math.Float64frombits(h.maxBits.Load()),
	}
	if total == 0 {
		return s
	}
	s.Mean = s.Sum / float64(total)
	s.P50 = quantile(&counts, total, 0.50)
	s.P90 = quantile(&counts, total, 0.90)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// quantile returns the upper bound of the bucket containing the q-quantile
// observation.
func quantile(counts *[histBuckets + 1]int64, total int64, q float64) float64 {
	rank := int64(math.Ceil(q * float64(total)))
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if i >= histBuckets {
				return math.Inf(1) // overflow bucket has no upper bound
			}
			return histBounds[i]
		}
	}
	return math.Inf(1)
}

// Registry holds named metrics. Lookups are read-locked; registration
// happens once per name and is get-or-create, so callers can resolve
// metrics in package var initializers and share them freely.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	fgauges    map[string]*FloatGauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry. Most code uses the package-level
// default via GetCounter and friends.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		fgauges:    map[string]*FloatGauge{},
		histograms: map[string]*Histogram{},
	}
}

// std is the process-wide default registry. It is a package var (not built
// in init) so metrics resolved from other packages' var initializers are
// safe: imported packages finish variable initialization first.
var std = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.RLock()
	g := r.fgauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.fgauges[name]; g != nil {
		return g
	}
	g = &FloatGauge{}
	r.fgauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.histograms[name]; h != nil {
		return h
	}
	h = &Histogram{}
	r.histograms[name] = h
	return h
}

// GetCounter resolves a counter in the default registry.
func GetCounter(name string) *Counter { return std.Counter(name) }

// GetGauge resolves a gauge in the default registry.
func GetGauge(name string) *Gauge { return std.Gauge(name) }

// GetFloatGauge resolves a float gauge in the default registry.
func GetFloatGauge(name string) *FloatGauge { return std.FloatGauge(name) }

// GetHistogram resolves a histogram in the default registry.
func GetHistogram(name string) *Histogram { return std.Histogram(name) }

// Snapshot returns every registered metric's current value as a flat,
// JSON-marshalable map (expvar-style): counters and gauges map to numbers,
// histograms to {count, sum, mean, p50, p90, p99, max} objects.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.fgauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, g := range r.fgauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

// Snapshot returns the default registry's metrics.
func Snapshot() map[string]any { return std.Snapshot() }

// SnapshotJSON marshals the default registry's snapshot as indented JSON —
// the payload of the /metrics endpoint and of mhbench -metrics files.
// Infinities (overflow-bucket quantiles) are clamped to MaxFloat64 so the
// output is always valid JSON.
func SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(sanitize(Snapshot()), "", "  ")
}

// sanitize replaces non-finite floats, which encoding/json rejects.
func sanitize(m map[string]any) map[string]any {
	for k, v := range m {
		if hs, ok := v.(HistogramSnapshot); ok {
			hs.P50 = finite(hs.P50)
			hs.P90 = finite(hs.P90)
			hs.P99 = finite(hs.P99)
			hs.Max = finite(hs.Max)
			hs.Sum = finite(hs.Sum)
			hs.Mean = finite(hs.Mean)
			m[k] = hs
		}
	}
	return m
}

func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	return v
}

// Handler serves the default registry as a JSON document — the /metrics
// endpoint of modelhub-server.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		refreshRuntimeMetrics()
		blob, err := SnapshotJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(blob); err != nil {
			// The scraper went away mid-response; log and move on.
			Logger().Debug("metrics response write failed", "err", err)
		}
	})
}
