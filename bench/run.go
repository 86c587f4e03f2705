package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// warmupCycles at the start of each round of a real run are not measured.
const warmupCycles = 2

// workload is one closed-loop cycle repeated by a single client, plus what
// the report needs to know about it.
type workload interface {
	// cycle runs one iteration: untimed preparation, then the timed ops
	// (through c.op) each followed by its correctness gates (c.gate).
	cycle(c *cycle)
	// counts adds the workload's count metrics (bytes, ratios) after a round.
	counts(m map[string]float64)
	// probes are the direct layer calls the traced run makes between cycles.
	probes() []probe
	// net is the cluster whose listeners the workload's traffic crosses, or
	// nil for a workload that uses none in its timed window.
	net() *cluster
	close()
}

// sample is what one round measured, warm-up excluded.
type sample struct {
	ops       map[string][]float64 // op name -> milliseconds
	cycleMS   []float64            // timed body of each cycle
	plainMS   []float64            // traced round: timed body of each cycle run with tracing off
	cpuMS     float64              // process CPU inside the timed bodies
	net       netSnap              // listener and handler counts inside the timed bodies
	prog      map[string]float64   // traced run: the program's obs counters over the cycles
	allocs    uint64               // heap bytes allocated over the measured cycles
	gcPauseMS float64
	attempted int
	failed    int
	counts    map[string]float64
	probes    map[string][]float64
}

func newSample() sample {
	return sample{ops: map[string][]float64{}, counts: map[string]float64{}, probes: map[string][]float64{}, prog: map[string]float64{}}
}

// cycle is the stopwatch and gate book-keeping handed to workload.cycle.
type cycle struct {
	ctx    context.Context
	n      int
	tr     *tracer
	net    *cluster
	ops    map[string][]float64
	bodyMS float64
	cpuMS  float64
	netUse netSnap

	attempted, failed int
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// op times one user-visible operation. Its time, CPU and wire bytes count
// towards the cycle; whatever runs between ops (preparation, gates) does not.
// A returned error is a failed operation.
func (c *cycle) op(name string, fn func() error) bool {
	net0 := c.net.snap()
	id := c.tr.start(levelOp, "op."+name)
	cpu0, start := cpuNow(), time.Now()
	err := fn()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	c.cpuMS += float64((cpuNow() - cpu0).Nanoseconds()) / 1e6
	c.tr.end(levelOp, id)
	c.netUse.add(c.net.snap(), net0)
	c.bodyMS += ms
	c.ops[name] = append(c.ops[name], ms)
	c.gate(err == nil, "%s: %v", name, err)
	return err == nil
}

// layer marks a call into one layer's public function inside an op; it only
// records a span, and only in the traced run.
func (c *cycle) layer(name string, fn func() error) error {
	id := c.tr.start(levelLayer, name)
	err := fn()
	c.tr.end(levelLayer, id)
	return err
}

// gate counts one correctness check.
func (c *cycle) gate(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: cycle %d FAILED "+format+"\n", append([]any{c.n}, args...)...)
		}
	}
}

// round says how long one round runs and what it records. The default run
// warms up for warmupCycles and then measures until the window closes; the
// smoke test asks for an exact number of cycles instead.
//
// A traced round measures cycles in pairs, one traced and one plain. In the
// traced cycle tr records spans and the program's obs counters are read
// around it; in the plain one tracing and the obs registry are off and only
// its time is kept, as the base of obs.overhead_share. Taking that base from
// the neighbouring cycle rather than from another round keeps the drift of a
// shared machine, which is several times the overhead, out of the ratio. One
// probe runs after each pair, and which of the two comes first alternates, so
// that the cycle that follows a probe is as often of one kind as of the other.
type round struct {
	window    time.Duration
	traced    bool
	warmup    int // cycles run and gated but not measured
	minCycles int // measured cycles to run even if the window has closed
}

// runRound drives w with one client. The window opens after the warm-up.
func runRound(ctx context.Context, w workload, tr *tracer, r round) sample {
	defer func() {
		tr.begin(false, r.warmup)
		obsDisable() // the program's default
	}()
	s := newSample()
	var ms0 runtime.MemStats
	var deadline time.Time
	probes := w.probes()
	for n := 0; ctx.Err() == nil && (n < r.warmup+r.minCycles || time.Now().Before(deadline)); n++ {
		if n == r.warmup {
			runtime.ReadMemStats(&ms0)
			deadline = time.Now().Add(r.window)
		}
		k := n - r.warmup // index among the measured cycles
		traced := r.traced && (k < 0 || k%2 == k/2%2)
		tr.begin(traced, r.warmup)
		tr.setCycle(n)
		var prog0 map[string]float64
		if traced {
			obsEnable()
			prog0 = progCounters()
		} else {
			obsDisable()
		}
		c := &cycle{ctx: ctx, n: n, tr: tr, net: w.net(), ops: map[string][]float64{}}
		id := tr.start(levelCycle, "cycle")
		w.cycle(c)
		tr.end(levelCycle, id)
		s.attempted += c.attempted
		s.failed += c.failed
		switch {
		case k < 0:
		case r.traced && !traced:
			s.plainMS = append(s.plainMS, c.bodyMS)
		default:
			for name, v := range c.ops {
				s.ops[name] = append(s.ops[name], v...)
			}
			s.cycleMS = append(s.cycleMS, c.bodyMS)
			s.cpuMS += c.cpuMS
			s.net.add(c.netUse, netSnap{})
			if traced {
				for name, v := range progCounters() {
					s.prog[name] += v - prog0[name]
				}
			}
		}
		if r.traced && k >= 0 && k%2 == 1 && len(probes) > 0 {
			// Round-robin, so probing stays a small and even share of the window.
			p := probes[k/2%len(probes)]
			if err := p.run(s.probes); err != nil {
				s.attempted++
				s.failed++
				fmt.Fprintf(os.Stderr, "bench: probe %s FAILED: %v\n", p.name, err)
			}
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	s.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	s.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	w.counts(s.counts)
	return s
}

// merge pools another round of the same workload into s.
func (s *sample) merge(o sample) {
	for name, v := range o.ops {
		s.ops[name] = append(s.ops[name], v...)
	}
	for name, v := range o.probes {
		s.probes[name] = append(s.probes[name], v...)
	}
	s.cycleMS = append(s.cycleMS, o.cycleMS...)
	s.plainMS = append(s.plainMS, o.plainMS...)
	s.cpuMS += o.cpuMS
	s.net.add(o.net, netSnap{})
	for name, v := range o.prog {
		s.prog[name] += v
	}
	s.allocs += o.allocs
	s.gcPauseMS += o.gcPauseMS
	s.attempted += o.attempted
	s.failed += o.failed
	for name, v := range o.counts {
		s.counts[name] = v
	}
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
