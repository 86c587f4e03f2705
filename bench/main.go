// Command bench is ModelHub's end-to-end benchmark: it boots a gateway and
// three storage replicas in this process on real loopback listeners, builds
// its fixtures from a seed, and drives four closed-loop workloads through the
// public functions dlv and modelhub-server call. See README.md.
//
//	go run ./bench                          every workload, 3 rounds x 10 s, every metric by name
//	go run ./bench -trace                   the same, then a traced round for the per-layer metrics
//	go run ./bench -compare old.json new.json
//	go run ./bench --workload hub-share --seed 7 --seconds 10 --trace 0
//
// The last form is what BENCHMARK.json's driver runs: one workload, one
// round, one JSON object as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"
)

const (
	// setupRepeats is how often a workload is set up to report the median
	// set-up time; the last set-up is the one that runs.
	setupRepeats = 3
	// rounds is how many untraced rounds the default run gives each workload,
	// interleaved across workloads. Lengthen the rounds (-seconds), not this.
	rounds = 3
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeTrace lets -trace be given bare, as -trace=true, or as the driver
// writes it, "--trace 0" and "--trace 1", which the flag package would read
// as a bare -trace followed by a positional argument.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload, one round, and print one JSON line (driver mode)")
	seed := fs.Int64("seed", 1, "seed of the fine-tunes and the held-out examples")
	seconds := fs.Int("seconds", 10, "length of one timed round")
	trace := fs.Bool("trace", false, "add the traced round: spans, probes, per-layer metrics")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for results, span files and temporary state")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(*outDir, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer b.cleanup()

	window := time.Duration(*seconds) * time.Second
	if *workloadName != "" {
		err = b.driverRun(ctx, *workloadName, window, *trace)
	} else {
		err = b.fullRun(ctx, window, *trace)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// bench owns everything a run leaves on disk: one temporary root, removed on
// exit and on SIGINT, and the out directory next to it.
type bench struct {
	out  string
	root string
	seed int64
}

func newBench(out string, seed int64) (*bench, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	spreadSubdirs(out)
	root, err := pickRoot(out)
	if err != nil {
		return nil, err
	}
	if root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	// The hub client, gateway and server spool through os.CreateTemp("");
	// point that inside the root so the run touches nothing outside it.
	tmp := filepath.Join(root, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}
	return &bench{out: out, root: root, seed: seed}, nil
}

// pickRoot makes a few candidate roots in out, creates a handful of files in
// each, and keeps the one where that was cheapest. spreadSubdirs makes the
// filesystem scatter the candidates, but now and then it puts one where an
// earlier run has just deleted its files, and there every create is dear for
// the next minute (see spreadSubdirs): a run in such a root measured 175 to
// 250 ms per hub-share cycle against a steady 133 ms anywhere else.
func pickRoot(out string) (string, error) {
	const candidates, files = 4, 64
	best, bestCost := "", time.Duration(0)
	for i := 0; i < candidates; i++ {
		dir, err := os.MkdirTemp(out, "tmp-")
		if err != nil {
			os.RemoveAll(best)
			return "", err
		}
		start := time.Now()
		for j := 0; j < files && err == nil; j++ {
			var f *os.File
			if f, err = os.Create(filepath.Join(dir, fmt.Sprintf("placement-%02d", j))); err == nil {
				err = f.Close()
			}
		}
		cost := time.Since(start)
		switch {
		case err != nil:
			os.RemoveAll(dir)
			os.RemoveAll(best)
			return "", err
		case best == "" || cost < bestCost:
			os.RemoveAll(best) // RemoveAll("") does nothing
			best, bestCost = dir, cost
		default:
			os.RemoveAll(dir)
		}
	}
	return best, nil
}

// spreadSubdirs marks dir as the top of a directory hierarchy (chattr +T), so
// that ext4 places each directory made in it, which is each run's root, in a
// block group of its own choosing and not next to the previous run's. Without
// it a run that follows another is up to twice as slow on the hub workloads:
// an ext4 without a journal, as the sandbox's is, will not reuse an inode for
// a minute after it was deleted, and every file a run creates in the block
// groups where the previous run just deleted its tens of thousands first
// walks past all of those. Where the filesystem has no such flag nothing is
// lost, so the error is dropped.
func spreadSubdirs(dir string) {
	const (
		getFlags    = 0x80086601 // FS_IOC_GETFLAGS
		setFlags    = 0x40086602 // FS_IOC_SETFLAGS
		topOfTreeFl = 0x00020000 // FS_TOPDIR_FL
	)
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	var flags uint32
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, d.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= topOfTreeFl
	_, _, _ = syscall.Syscall(syscall.SYS_IOCTL, d.Fd(), setFlags, uintptr(unsafe.Pointer(&flags)))
}

// cleanup removes the root and has the filesystem write that out, so that a
// run started right after this one does not pay for it.
func (b *bench) cleanup() {
	os.RemoveAll(b.root)
	syscall.Sync()
}

// prepared is a workload that has been set up, with its tracer and the
// set-up times of every repeat.
type prepared struct {
	def    workloadDef
	w      workload
	tr     *tracer
	setups []float64
}

// prepare sets the workload up `repeats` times under fresh directories and
// keeps the last one.
func (b *bench) prepare(ctx context.Context, def workloadDef, repeats int) (*prepared, error) {
	p := &prepared{def: def}
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(b.root, fmt.Sprintf("%s-%d", def.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		p.tr = newTracer()
		start := time.Now()
		w, err := def.setup(ctx, dir, b.seed, p.tr)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", def.name, err)
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		if i < repeats-1 {
			w.close() // its directory stays until exit, see scratchDir
			continue
		}
		p.w = w
	}
	// Start the timed window with nothing of the set-up left to write back.
	syscall.Sync()
	return p, nil
}

// measured is a round of a real run: two warm-up cycles, then the window,
// and at least one measured cycle however short the window.
func measured(window time.Duration, traced bool) round {
	return round{window: window, traced: traced, warmup: warmupCycles, minCycles: 1}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, def := range workloadDefs {
		if def.name == name {
			return def, true
		}
	}
	return workloadDef{}, false
}

// driverRun is the BENCHMARK.json contract: one workload, one round, and as
// the last line of standard output one JSON object with the end-to-end
// metrics (untraced) or the per-layer metrics (traced).
func (b *bench) driverRun(ctx context.Context, name string, window time.Duration, traced bool) error {
	def, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	p, err := b.prepare(ctx, def, repeats)
	if err != nil {
		return err
	}
	defer p.w.close()
	var s sample
	var all map[string]metric
	var names []string
	if traced {
		s, all = b.tracedRound(ctx, p, window)
		names = driverPerLayer
	} else {
		s = runRound(ctx, p.w, p.tr, measured(window, false))
		all = endToEnd([]sample{s}, p.setups)
		names = driverEndToEnd
	}
	if ctx.Err() != nil {
		return ctx.Err() // interrupted: no result
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{s.failed == 0, s.attempted, s.failed, map[string]metric{}}
	for _, n := range names {
		m := all[n]
		if m.Unit == "" {
			m.Unit = unitOf(n)
		}
		line.Metrics[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if s.failed > 0 {
		return fmt.Errorf("%s: %d of %d correctness checks failed", name, s.failed, s.attempted)
	}
	return nil
}

// tracedRound runs one round with the program's obs registry and the
// benchmark's spans on and writes the spans to out/trace-<workload>.json.
func (b *bench) tracedRound(ctx context.Context, p *prepared, window time.Duration) (sample, map[string]metric) {
	s := runRound(ctx, p.w, p.tr, measured(window, true))
	if err := p.tr.write(filepath.Join(b.out, "trace-"+p.def.name+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
	}
	return s, p.layers(s)
}

// layers is perLayer plus the traced round's own op medians and count
// ratios for the names perLayerSpec lists, so that a per-layer reading has
// the end-to-end number it explains next to it.
func (p *prepared) layers(s sample) map[string]metric {
	out := perLayer(s, p.tr)
	ops := endToEnd([]sample{s}, p.setups)
	for _, name := range driverPerLayer {
		if m, ok := ops[name]; ok {
			out[name] = m
		}
	}
	return out
}

// fullRun is the default run shape: every workload, rounds interleaved
// A B C D A B C D ... so a slow phase of a shared machine lands on all of
// them, samples pooled across rounds; then, with -trace, one traced round
// each. Fixtures and clusters persist across rounds.
func (b *bench) fullRun(ctx context.Context, window time.Duration, traced bool) error {
	var ps []*prepared
	defer func() {
		for _, p := range ps {
			p.w.close()
		}
	}()
	for _, def := range workloadDefs {
		fmt.Fprintf(os.Stderr, "bench: setting up %s\n", def.name)
		p, err := b.prepare(ctx, def, setupRepeats)
		if err != nil {
			return err
		}
		ps = append(ps, p)
	}
	samples := make([][]sample, len(ps))
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		for i, p := range ps {
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %s\n", r+1, rounds, p.def.name)
			samples[i] = append(samples[i], runRound(ctx, p.w, p.tr, measured(window, false)))
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	res := result{Meta: readMeta(b.seed, int(window.Seconds()))}
	failed := 0
	for i, p := range ps {
		wr := workloadResult{Name: p.def.name, Why: p.def.why, EndToEnd: endToEnd(samples[i], p.setups)}
		for _, s := range samples[i] {
			wr.Attempted += s.attempted
			wr.Failed += s.failed
		}
		if traced && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "bench: traced round %s\n", p.def.name)
			s, layers := b.tracedRound(ctx, p, window*3/2)
			wr.PerLayer = layers
			wr.Attempted += s.attempted
			wr.Failed += s.failed
		}
		failed += wr.Failed
		res.Workloads = append(res.Workloads, wr)
	}
	printResult(os.Stdout, res)
	blob, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.out, "result.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d correctness checks failed", failed)
	}
	return nil
}
