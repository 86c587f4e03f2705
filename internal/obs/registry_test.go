package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// Tests in this package toggle the global Enable gate, so none of them may
// run with t.Parallel; each test that enables metrics restores the disabled
// default on exit.

func TestDisabledOpsAreNoops(t *testing.T) {
	Disable()
	c := GetCounter("test.disabled.counter")
	g := GetGauge("test.disabled.gauge")
	f := GetFloatGauge("test.disabled.fgauge")
	h := GetHistogram("test.disabled.hist")
	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Add(3)
	f.Set(1.5)
	h.Observe(0.25)
	h.Time()()
	if c.Value() != 0 || g.Value() != 0 || f.Value() != 0 {
		t.Fatalf("disabled metrics recorded: counter=%d gauge=%d fgauge=%g",
			c.Value(), g.Value(), f.Value())
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("disabled histogram recorded %d observations", s.Count)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var f *FloatGauge
	var h *Histogram
	c.Inc()
	g.Set(1)
	f.Set(1)
	h.Observe(1)
	h.Time()()
	if c.Value() != 0 || g.Value() != 0 || f.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metrics should read as zero")
	}
}

func TestCounterGaugeEnabled(t *testing.T) {
	Enable()
	defer Disable()
	c := GetCounter("test.enabled.counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := GetGauge("test.enabled.gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	f := GetFloatGauge("test.enabled.fgauge")
	f.Set(2.25)
	if f.Value() != 2.25 {
		t.Fatalf("float gauge = %g, want 2.25", f.Value())
	}
}

func TestGetOrCreateReturnsSameInstance(t *testing.T) {
	if GetCounter("test.identity") != GetCounter("test.identity") {
		t.Fatal("GetCounter returned distinct instances for one name")
	}
	if GetHistogram("test.identity.h") != GetHistogram("test.identity.h") {
		t.Fatal("GetHistogram returned distinct instances for one name")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	Enable()
	defer Disable()
	h := GetHistogram("test.hist.quantiles")
	// 100 observations at ~1ms, one at ~1s: p50/p90 land in the 1ms bucket,
	// max is the big one.
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	h.Observe(1.0)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d, want 101", s.Count)
	}
	if math.Abs(s.Sum-1.1) > 1e-9 {
		t.Fatalf("sum = %g, want 1.1", s.Sum)
	}
	if s.Max != 1.0 {
		t.Fatalf("max = %g, want 1.0", s.Max)
	}
	// Quantiles are bucket upper bounds: the 1ms bucket's bound is in
	// [0.001, 0.002); the p99 must be >= p50.
	if s.P50 < 0.001 || s.P50 >= 0.01 {
		t.Fatalf("p50 = %g, want ~1ms bucket bound", s.P50)
	}
	if s.P99 < s.P50 {
		t.Fatalf("p99 %g < p50 %g", s.P99, s.P50)
	}
	if s.Mean <= 0 {
		t.Fatalf("mean = %g, want > 0", s.Mean)
	}
}

func TestHistogramOverflowQuantileIsClamped(t *testing.T) {
	Enable()
	defer Disable()
	h := GetHistogram("test.hist.overflow")
	h.Observe(math.MaxFloat64 / 2) // beyond the last bucket bound
	s := h.Snapshot()
	if !math.IsInf(s.P99, 1) {
		t.Fatalf("overflow p99 = %g, want +Inf pre-sanitize", s.P99)
	}
	blob, err := SnapshotJSON()
	if err != nil {
		t.Fatalf("SnapshotJSON: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if _, ok := decoded["test.hist.overflow"]; !ok {
		t.Fatal("snapshot is missing the overflow histogram")
	}
}

// TestRegistryRace hammers one counter and one histogram from parallel
// writers while snapshots are taken concurrently; run with -race.
func TestRegistryRace(t *testing.T) {
	Enable()
	defer Disable()
	const writers = 8
	const perWriter = 500
	c := GetCounter("test.race.counter")
	h := GetHistogram("test.race.hist")
	base := c.Value()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 0.001)
				if i%50 == 0 {
					// Snapshot mid-write: must not race or tear.
					_ = Snapshot()
					_ = h.Snapshot()
				}
			}
		}(w)
	}
	// Concurrent get-or-create of fresh names races registration paths.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			GetCounter("test.race.shared").Inc()
			_ = std.Snapshot()
		}
	}()
	wg.Wait()
	if got := c.Value() - base; got != writers*perWriter {
		t.Fatalf("counter delta = %d, want %d", got, writers*perWriter)
	}
	if s := h.Snapshot(); s.Count < writers*perWriter {
		t.Fatalf("histogram count = %d, want >= %d", s.Count, writers*perWriter)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "warn": "WARN", "WARNING": "WARN", "Error": "ERROR",
	} {
		lvl, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lvl.String() != want {
			t.Fatalf("ParseLevel(%q) = %v, want %s", in, lvl, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted an unknown level")
	}
}

func TestSetLoggerNilRestoresSilence(t *testing.T) {
	SetLogger(nil)
	if Logger() == nil {
		t.Fatal("Logger() returned nil")
	}
	// The silent default must drop records without formatting them.
	Logger().Info("this must go nowhere")
}

// BenchmarkCounterDisabled measures the disabled fast path: one atomic load
// plus a branch per operation.
func BenchmarkCounterDisabled(b *testing.B) {
	Disable()
	c := GetCounter("bench.counter.disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	Enable()
	defer Disable()
	c := GetCounter("bench.counter.enabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	Enable()
	defer Disable()
	h := GetHistogram("bench.hist.enabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0001)
	}
}
