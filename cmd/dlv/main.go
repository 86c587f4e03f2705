// Command dlv is the DLV model versioning tool (paper Table II): a git-like
// command line for managing deep learning model versions, exploring and
// comparing them, archiving their parameters, running DQL queries, and
// exchanging repositories with a hosted ModelHub server.
//
// Usage:
//
//	dlv [-log-level debug|info|warn|error] [-trace] <command> [flags]
//
//	dlv init
//	dlv add     FILE...
//	dlv train   -name NAME [-arch lenet|alexnet-mini|vgg-mini] [-epochs N] [-lr F] [-parent ID]
//	dlv copy    -from ID -name NAME
//	dlv list    [-html FILE]
//	dlv desc    -v ID [-html FILE]
//	dlv diff    -a ID -b ID [-html FILE]
//	dlv archive [-algo pas-mt|pas-pt|mst|spt|last|best] [-alpha F] [-scheme NAME] [-plane-granularity] [-explain]
//	dlv repack  (re-plan every archived version globally)
//	dlv eval    -v ID [-snap LABEL] [-prefix 1..4] [-progressive [-topk K]]
//	dlv plot    -v ID [-layer NAME] [-prefix 1..4] -o weights.html
//	dlv query   'select m where ...'
//	dlv publish -remote URL -name NAME [-timeout D] [-stall-timeout D] [-retries N]
//	dlv search  -remote URL -q QUERY   [-timeout D] [-stall-timeout D] [-retries N]
//	dlv pull    -remote URL -name NAME [-dest DIR] [-timeout D] [-stall-timeout D] [-retries N]
//	dlv trace   -remote URL [last|TRACE_ID]
//
// All commands except init/pull operate on the repository in the current
// directory (or -repo DIR).
//
// A version's learned weights stay raw from commit until the next
// `dlv archive`, which moves them into the PAS archive and deletes the raw
// copy. From then on the archive is their only copy. Running archive again
// with the same -algo, -alpha, -scheme and -plane-granularity extends the
// stored plan with the versions committed since; other settings re-plan
// every version, as `dlv repack` does with the recorded ones. A re-plan
// writes fresh segment files and unlinks the old plan's, so the archive
// holds only what its manifest names.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"modelhub/internal/core"
	"modelhub/internal/data"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/hub"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/report"
)

func main() {
	// Global flags come before the subcommand (flag parsing stops at the
	// first non-flag argument): dlv [-log-level LEVEL] [-trace] <command> ...
	global := flag.NewFlagSet("dlv", flag.ExitOnError)
	logLevel := global.String("log-level", "", "log to stderr at this level (debug, info, warn, error)")
	traceOn := global.Bool("trace", false,
		"trace this invocation: record spans locally and export hub-command traces to the server's /debug/traces")
	global.Usage = func() {
		usage()
		global.PrintDefaults()
	}
	_ = global.Parse(os.Args[1:]) // ExitOnError makes Parse exit on failure
	if global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	if err := obs.ConfigureLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "dlv:", err)
		os.Exit(2)
	}
	if *traceOn {
		obs.Enable()
		obs.EnableTracing()
		obs.SetService("dlv")
	}
	// Ctrl-C / SIGTERM cancel the command context: hub transfers abort
	// mid-stream or mid-backoff instead of running to completion, and a
	// second signal kills the process via the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := global.Arg(0), global.Args()[1:]
	if err := run(ctx, cmd, args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2) // the flag package already printed the usage
		}
		fmt.Fprintln(os.Stderr, "dlv:", err)
		os.Exit(1)
	}
}

// globalFlagNames are the dlv-level flags that must precede the subcommand.
var globalFlagNames = map[string]bool{"log-level": true, "trace": true}

// parseCmd parses a subcommand's flags and, instead of silently dropping
// them (flag parsing stops at the first positional) or reporting a bare
// "not defined" error, rejects global flags placed after the subcommand
// with a usage error naming the misplaced flag.
func parseCmd(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		if name, ok := strings.CutPrefix(err.Error(), "flag provided but not defined: -"); ok && globalFlagNames[name] {
			return misplacedGlobalFlag(fs.Name(), name)
		}
		return err
	}
	for _, a := range fs.Args() {
		name := strings.TrimLeft(a, "-")
		name, _, _ = strings.Cut(name, "=")
		if len(name) < len(a) && globalFlagNames[name] {
			return misplacedGlobalFlag(fs.Name(), name)
		}
	}
	return nil
}

func misplacedGlobalFlag(cmd, name string) error {
	return fmt.Errorf("global flag -%s must come before the subcommand: dlv -%s %s ...", name, name, cmd)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dlv [-log-level LEVEL] [-trace] <command> [flags]
commands: init add train copy list desc diff archive repack eval history plot query publish search pull trace
  archive  move raw versions into the PAS archive; extends the stored plan when the settings match it
  repack   re-plan every archived version globally with the recorded settings`)
}

func run(ctx context.Context, cmd string, args []string) error {
	switch cmd {
	case "init":
		fs := flag.NewFlagSet("init", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if _, err := core.Init(*repoDir); err != nil {
			return err
		}
		fmt.Println("initialized empty dlv repository in", *repoDir)
		return nil

	case "add":
		fs := flag.NewFlagSet("add", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		files := fs.Args()
		if len(files) == 0 {
			return fmt.Errorf("add: pass at least one repository-relative file")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		for _, f := range files {
			if err := mh.Repo.Add(f); err != nil {
				return err
			}
		}
		staged, err := mh.Repo.Staged()
		if err != nil {
			return err
		}
		fmt.Printf("staged %d file(s): %v\n", len(staged), staged)
		return nil

	case "train":
		fs := flag.NewFlagSet("train", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		name := fs.String("name", "", "model version name (required)")
		arch := fs.String("arch", "lenet", "zoo architecture")
		epochs := fs.Int("epochs", 2, "training epochs")
		lr := fs.Float64("lr", 0.1, "learning rate")
		momentum := fs.Float64("momentum", 0.9, "SGD momentum")
		ckpt := fs.Int("checkpoint-every", 10, "iterations between checkpoints (0 = none)")
		parent := fs.Int64("parent", 0, "parent version id for fine-tuning")
		seed := fs.Int64("seed", 1, "random seed")
		msg := fs.String("m", "", "commit message")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *name == "" {
			return fmt.Errorf("train: -name is required")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		id, err := mh.TrainAndCommit(*name, core.TrainOptions{
			Arch: *arch, Epochs: *epochs, LR: *lr, Momentum: *momentum,
			CheckpointEvery: *ckpt, ParentID: *parent, Seed: *seed, Msg: *msg,
		})
		if err != nil {
			return err
		}
		v, err := mh.Repo.Version(id)
		if err != nil {
			return err
		}
		fmt.Printf("committed model version %d (%s), accuracy %.4f\n", id, *name, v.Accuracy)
		return nil

	case "copy":
		fs := flag.NewFlagSet("copy", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		from := fs.Int64("from", 0, "source version id (required)")
		name := fs.String("name", "", "new model name (required)")
		msg := fs.String("m", "scaffolded", "commit message")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *from == 0 || *name == "" {
			return fmt.Errorf("copy: -from and -name are required")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		id, err := mh.Repo.Copy(*from, *name, *msg)
		if err != nil {
			return err
		}
		fmt.Printf("scaffolded model version %d (%s) from %d\n", id, *name, *from)
		return nil

	case "list":
		fs := flag.NewFlagSet("list", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		htmlOut := fs.String("html", "", "write an HTML report to this file instead of stdout")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		versions, err := mh.Repo.List()
		if err != nil {
			return err
		}
		if *htmlOut != "" {
			html, err := report.List(versions)
			if err != nil {
				return err
			}
			return os.WriteFile(*htmlOut, []byte(html), 0o644)
		}
		fmt.Printf("%-4s %-24s %-9s %-6s %-8s %s\n", "ID", "NAME", "ACCURACY", "SNAPS", "PARENT", "CREATED")
		for _, v := range versions {
			parent := "-"
			if v.ParentID != 0 {
				parent = fmt.Sprintf("%d", v.ParentID)
			}
			fmt.Printf("%-4d %-24s %-9.4f %-6d %-8s %s\n", v.ID, v.Name, v.Accuracy, len(v.Snapshots), parent, v.Created)
		}
		return nil

	case "desc":
		fs := flag.NewFlagSet("desc", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		id := fs.Int64("v", 0, "version id (required)")
		htmlOut := fs.String("html", "", "write an HTML report to this file instead of stdout")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *id == 0 {
			return fmt.Errorf("desc: -v is required")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		log, err := mh.Repo.TrainLog(*id)
		if err != nil {
			return err
		}
		if *htmlOut != "" {
			v, err := mh.Repo.Version(*id)
			if err != nil {
				return err
			}
			html, err := report.Desc(v, log)
			if err != nil {
				return err
			}
			return os.WriteFile(*htmlOut, []byte(html), 0o644)
		}
		desc, err := mh.Repo.Describe(*id)
		if err != nil {
			return err
		}
		fmt.Print(desc)
		if len(log) > 0 {
			fmt.Println("  training log:")
			for _, e := range log {
				fmt.Printf("    iter %5d  loss %.4f  acc %.4f  lr %g\n", e.Iter, e.Loss, e.Accuracy, e.LR)
			}
		}
		return nil

	case "diff":
		fs := flag.NewFlagSet("diff", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		a := fs.Int64("a", 0, "first version id")
		b := fs.Int64("b", 0, "second version id")
		htmlOut := fs.String("html", "", "write an HTML report to this file instead of stdout")
		weights := fs.Bool("weights", false, "also compare the learned parameters layer by layer")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *a == 0 || *b == 0 {
			return fmt.Errorf("diff: -a and -b are required")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		rep, err := mh.Repo.Diff(*a, *b)
		if err != nil {
			return err
		}
		if *htmlOut != "" {
			va, err := mh.Repo.Version(*a)
			if err != nil {
				return err
			}
			vb, err := mh.Repo.Version(*b)
			if err != nil {
				return err
			}
			html, err := report.Diff(va, vb, rep)
			if err != nil {
				return err
			}
			return os.WriteFile(*htmlOut, []byte(html), 0o644)
		}
		fmt.Printf("diff of versions %d and %d:\n", rep.A, rep.B)
		fmt.Printf("  layers only in %d: %v\n", rep.A, rep.OnlyInA)
		fmt.Printf("  layers only in %d: %v\n", rep.B, rep.OnlyInB)
		fmt.Printf("  changed layers:    %v\n", rep.ChangedLayers)
		for k, vals := range rep.HyperChanged {
			fmt.Printf("  hyper %s: %q -> %q\n", k, vals[0], vals[1])
		}
		fmt.Printf("  accuracy delta:    %+.4f\n", rep.AccuracyDelta)
		if *weights {
			diffs, err := mh.Repo.DiffWeights(*a, *b, dlv.LatestSnap)
			if err != nil {
				return err
			}
			fmt.Println("  learned parameters:")
			fmt.Print(dlv.FormatWeightDiffs(diffs))
		}
		return nil

	case "archive":
		fs := flag.NewFlagSet("archive", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		algo := fs.String("algo", "pas-mt", "plan algorithm: pas-mt pas-pt mst spt last, or best (the cheaper feasible plan of pas-mt and pas-pt)")
		alpha := fs.Float64("alpha", 2.0, "recreation budget scalar (x SPT cost)")
		schemeName := fs.String("scheme", "independent",
			"retrieval scheme budgets are evaluated under: independent parallel reusable concurrent")
		explain := fs.Bool("explain", false, "print per-snapshot recreation costs vs budgets")
		planes := fs.Bool("plane-granularity", false, "optimize storage per byte segment instead of per matrix")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		scheme, err := pas.ParseScheme(*schemeName)
		if err != nil {
			return err
		}
		store, err := mh.Repo.Archive(dlv.ArchiveOptions{
			Algorithm: *algo, Scheme: scheme, Alpha: *alpha, PlaneGranularity: *planes,
		})
		if err != nil {
			return err
		}
		info := store.Info()
		fmt.Printf("archived with %s: storage %.0f (MST bound %.0f, SPT %.0f), feasible=%v\n",
			info.Algorithm, info.StorageCost, info.MSTCost, info.SPTCost, info.Feasible)
		fmt.Printf("on-disk chunk bytes: %d (high plane only: %d)\n",
			store.TotalChunkBytes(4), store.TotalChunkBytes(1))
		if *explain {
			fmt.Printf("%-24s %-9s %14s %14s\n", "SNAPSHOT", "MATRICES", "RECREATION", "BUDGET")
			for _, sc := range store.SnapshotCosts() {
				budget := "-"
				if sc.Budget > 0 {
					budget = fmt.Sprintf("%.0f", sc.Budget)
				}
				fmt.Printf("%-24s %-9d %14.0f %14s\n", sc.ID, sc.Matrices, sc.Recreation, budget)
			}
		}
		return nil

	case "repack":
		fs := flag.NewFlagSet("repack", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		store, err := mh.Repack()
		if err != nil {
			return err
		}
		info := store.Info()
		fmt.Printf("repacked with %s: storage %.0f, %d stored chunk(s), on-disk chunk bytes %d\n",
			info.Algorithm, info.StorageCost, store.StoredChunks(), store.TotalChunkBytes(4))
		return nil

	case "eval":
		fs := flag.NewFlagSet("eval", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		id := fs.Int64("v", 0, "version id (required)")
		snap := fs.String("snap", dlv.LatestSnap, "snapshot label")
		prefix := fs.Int("prefix", 4, "byte planes to read (1..4)")
		progressive := fs.Bool("progressive", false, "use progressive evaluation")
		topk := fs.Int("topk", 1, "top-k determination for progressive evaluation")
		n := fs.Int("n", 100, "test examples")
		seed := fs.Int64("seed", 99, "test set seed")
		dataFile := fs.String("data", "", "JSON file of data points (overrides the synthetic test set)")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *id == 0 {
			return fmt.Errorf("eval: -v is required")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		var test []dnn.Example
		if *dataFile != "" {
			test, err = data.LoadExamples(*dataFile)
			if err != nil {
				return err
			}
		} else {
			test = core.TestSet(*n, *seed)
		}
		if *progressive {
			res, err := mh.Repo.EvalProgressiveTopK(*id, *snap, test, *topk)
			if err != nil {
				return err
			}
			fmt.Printf("progressive top-%d accuracy: %.4f\n", *topk, res.Accuracy)
			for p := 1; p <= 4; p++ {
				fmt.Printf("  resolved with %d plane(s): %d\n", p, res.PrefixHistogram[p])
			}
			return nil
		}
		res, err := mh.Repo.Eval(*id, *snap, test, *prefix)
		if err != nil {
			return err
		}
		fmt.Printf("accuracy at prefix %d: %.4f\n", res.Prefix, res.Accuracy)
		return nil

	case "history":
		fs := flag.NewFlagSet("history", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		id := fs.Int64("v", 0, "version id (required)")
		n := fs.Int("n", 100, "test examples")
		seed := fs.Int64("seed", 99, "test set seed")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *id == 0 {
			return fmt.Errorf("history: -v is required")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		hist, err := mh.Repo.EvalHistory(*id, core.TestSet(*n, *seed))
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %s\n", "SNAPSHOT", "ACCURACY")
		for _, h := range hist {
			fmt.Printf("%-16s %.4f\n", h.Snapshot, h.Accuracy)
		}
		return nil

	case "plot":
		// Matrix plots from high-order bytes only (paper Sec. IV-D: such
		// exploration queries do not need the low-order planes).
		fs := flag.NewFlagSet("plot", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		id := fs.Int64("v", 0, "version id (required)")
		snap := fs.String("snap", dlv.LatestSnap, "snapshot label")
		layer := fs.String("layer", "", "layer name (default: all parametric layers)")
		prefix := fs.Int("prefix", 2, "byte planes to read (1..4)")
		out := fs.String("o", "weights.html", "output HTML file")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *id == 0 {
			return fmt.Errorf("plot: -v is required")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		weights, err := mh.Repo.Weights(*id, *snap, *prefix)
		if err != nil {
			return err
		}
		var svgs []string
		for _, name := range slices.Sorted(maps.Keys(weights)) {
			if *layer != "" && name != *layer {
				continue
			}
			svgs = append(svgs, report.WeightHeatmap(weights[name], name))
		}
		if len(svgs) == 0 {
			return fmt.Errorf("plot: no matching layer %q", *layer)
		}
		html, err := report.HeatmapPage(fmt.Sprintf("weights of v%d/%s (prefix %d)", *id, *snap, *prefix), svgs)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, []byte(html), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d heatmap(s) to %s using %d byte plane(s)\n", len(svgs), *out, *prefix)
		return nil

	case "query":
		fs := flag.NewFlagSet("query", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		rest := fs.Args()
		if len(rest) != 1 {
			return fmt.Errorf("query: pass exactly one DQL statement")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		res, err := mh.Query(rest[0])
		if err != nil {
			return err
		}
		switch {
		case res.Versions != nil:
			for _, v := range res.Versions {
				fmt.Printf("%d\t%s\taccuracy=%.4f\n", v.ID, v.Name, v.Accuracy)
			}
		case res.Defs != nil:
			for _, def := range res.Defs {
				blob, err := def.ToJSON()
				if err != nil {
					return err
				}
				fmt.Println(string(blob))
			}
		default:
			for _, c := range res.Candidates {
				fmt.Printf("%s\tlr=%g momentum=%g batch=%d\tloss=%.4f acc=%.4f\n",
					c.Def.Name, c.Config.BaseLR, c.Config.Momentum, c.Config.Batch, c.Loss, c.Acc)
			}
		}
		return nil

	case "publish":
		fs := flag.NewFlagSet("publish", flag.ContinueOnError)
		repoDir := fs.String("repo", ".", "repository directory")
		remote := fs.String("remote", "", "hub server URL (required)")
		name := fs.String("name", "", "published repository name (required)")
		opts := hubFlags(fs)
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *remote == "" || *name == "" {
			return fmt.Errorf("publish: -remote and -name are required")
		}
		mh, err := core.Open(*repoDir)
		if err != nil {
			return err
		}
		if err := mh.PublishWith(ctx, *remote, *name, opts()); err != nil {
			return err
		}
		fmt.Printf("published %s to %s\n", *name, *remote)
		return nil

	case "search":
		fs := flag.NewFlagSet("search", flag.ContinueOnError)
		remote := fs.String("remote", "", "hub server URL (required)")
		q := fs.String("q", "", "search query")
		opts := hubFlags(fs)
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *remote == "" {
			return fmt.Errorf("search: -remote is required")
		}
		infos, err := core.SearchWith(ctx, *remote, *q, opts())
		if err != nil {
			return err
		}
		for _, info := range infos {
			fmt.Printf("%-24s %8d bytes  models=%v  published=%s\n",
				info.Name, info.SizeBytes, info.Models, info.PublishedAt)
		}
		return nil

	case "pull":
		fs := flag.NewFlagSet("pull", flag.ContinueOnError)
		remote := fs.String("remote", "", "hub server URL (required)")
		name := fs.String("name", "", "repository name (required)")
		dest := fs.String("dest", ".", "destination directory")
		opts := hubFlags(fs)
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *remote == "" || *name == "" {
			return fmt.Errorf("pull: -remote and -name are required")
		}
		if _, err := core.PullWith(ctx, *remote, *name, *dest, opts()); err != nil {
			return err
		}
		fmt.Printf("pulled %s into %s\n", *name, *dest)
		return nil

	case "trace":
		fs := flag.NewFlagSet("trace", flag.ContinueOnError)
		remote := fs.String("remote", "", "hub server URL (required)")
		if err := parseCmd(fs, args); err != nil {
			return err
		}
		if *remote == "" {
			return fmt.Errorf("trace: -remote is required")
		}
		sel := "last"
		if fs.NArg() > 0 {
			sel = fs.Arg(0)
		}
		return runTrace(*remote, sel)

	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// hubFlags registers the shared transfer flags of the hub commands
// (publish, search, pull) and returns a closure resolving them to
// hub.Options after fs.Parse. Zero values fall back to library defaults;
// negatives disable the mechanism.
func hubFlags(fs *flag.FlagSet) func() hub.Options {
	timeout := fs.Duration("timeout", 0, "per-request timeout for control requests (0 = default, negative = none)")
	stall := fs.Duration("stall-timeout", 0, "abort a transfer making no progress for this long (0 = default, negative = none)")
	retries := fs.Int("retries", 0, "retry attempts for idempotent requests; pulls resume via Range (0 = default, negative = none)")
	return func() hub.Options {
		return hub.Options{Timeout: *timeout, StallTimeout: *stall, Retries: *retries}
	}
}
