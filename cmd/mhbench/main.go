// Command mhbench regenerates the paper's evaluation tables and figures
// (Sec. V) and prints the same rows/series the paper reports. See DESIGN.md
// for the per-experiment index and EXPERIMENTS.md for paper-vs-measured
// notes.
//
// Usage:
//
//	mhbench -exp all            # every experiment
//	mhbench -exp fig6a          # one of: tab1 fig6a fig6b fig6c fig6d tab4 tab5 retrieval scale ablations
//	mhbench -exp fig6c -scale 3 # scale up the synthetic workloads
//	mhbench -exp all -metrics BENCH_metrics.json  # dump the obs registry after the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"modelhub/internal/experiments"
	"modelhub/internal/obs"
	"modelhub/internal/synth"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all tab1 fig6a fig6b fig6c fig6d tab4 tab5 retrieval scale ablations")
	scale := flag.Int("scale", 1, "workload scale multiplier for synthetic experiments")
	seed := flag.Int64("seed", 1, "random seed")
	metricsFile := flag.String("metrics", "", "enable the obs registry and write its JSON snapshot to this file on exit")
	flag.Parse()

	if *metricsFile != "" {
		obs.Enable()
		defer writeMetrics(*metricsFile)
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			log.Fatalf("mhbench %s: %v", name, err)
		}
		fmt.Println()
	}

	run("tab1", func() error {
		rows, err := experiments.RunTable1()
		if err != nil {
			return err
		}
		experiments.PrintTable1(os.Stdout, rows)
		return nil
	})

	run("fig6a", func() error {
		var models []*experiments.TrainedModel
		for _, arch := range []string{"lenet", "alexnet-mini", "vgg-mini"} {
			m, err := experiments.TrainFixture(arch, 400**scale, 3, *seed)
			if err != nil {
				return err
			}
			models = append(models, m)
		}
		rows, err := experiments.RunFig6a(models)
		if err != nil {
			return err
		}
		experiments.PrintFig6a(os.Stdout, rows)
		return nil
	})

	run("fig6b", func() error {
		rows, err := experiments.RunFig6b(*seed)
		if err != nil {
			return err
		}
		experiments.PrintFig6b(os.Stdout, rows)
		return nil
	})

	run("fig6c", func() error {
		rows, bounds, err := experiments.RunFig6c(experiments.Fig6cConfig{
			Snapshots: 30 * *scale, Seed: *seed,
		})
		if err != nil {
			return err
		}
		experiments.PrintFig6c(os.Stdout, rows, bounds)
		fmt.Println()
		dir, err := os.MkdirTemp("", "mhbench-fig6c-sd-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		sdRows, sdBounds, err := experiments.RunFig6cSD(dir, synth.SDConfig{
			Versions: 4 * *scale, SnapshotsPerVersion: 3, ItersPerSnapshot: 6,
			TrainExamples: 240, Seed: *seed,
		}, nil)
		if err != nil {
			return err
		}
		experiments.PrintFig6cSD(os.Stdout, sdRows, sdBounds)
		return nil
	})

	run("fig6d", func() error {
		m, err := experiments.TrainFixture("lenet", 600**scale, 4, *seed)
		if err != nil {
			return err
		}
		rows, err := experiments.RunFig6d(m, 120**scale)
		if err != nil {
			return err
		}
		experiments.PrintFig6d(os.Stdout, rows)
		return nil
	})

	run("tab4", func() error {
		rows, err := experiments.RunTable4(*seed)
		if err != nil {
			return err
		}
		experiments.PrintTable4(os.Stdout, rows)
		return nil
	})

	run("tab5", func() error {
		dir, err := os.MkdirTemp("", "mhbench-tab5-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		rows, err := experiments.RunTable5(dir, experiments.Tab5Config{
			Versions: 3 * *scale, Seed: *seed,
		})
		if err != nil {
			return err
		}
		experiments.PrintTable5(os.Stdout, rows)
		return nil
	})

	run("retrieval", func() error {
		rows, err := experiments.RunRetrieval(experiments.RetrievalConfig{
			Snapshots: 8 * *scale, Seed: *seed,
		})
		if err != nil {
			return err
		}
		experiments.PrintRetrieval(os.Stdout, rows)
		return nil
	})

	run("scale", func() error {
		sizes := []int{25, 50, 100, 200}
		if *scale > 1 {
			for i := range sizes {
				sizes[i] *= *scale
			}
		}
		rows, err := experiments.RunScale(*seed, sizes, 1.6)
		if err != nil {
			return err
		}
		experiments.PrintScale(os.Stdout, rows)
		return nil
	})

	run("ablations", func() error {
		budget, err := experiments.RunAblationBudgetSplit(*seed, nil)
		if err != nil {
			return err
		}
		experiments.PrintAblationBudget(os.Stdout, budget)
		fmt.Println()
		z, err := experiments.RunAblationZlibLevel(*seed)
		if err != nil {
			return err
		}
		experiments.PrintAblationZlib(os.Stdout, z)
		fmt.Println()
		dir, err := os.MkdirTemp("", "mhbench-gran-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		gran, err := experiments.RunAblationGranularity(dir, *seed, nil)
		if err != nil {
			return err
		}
		experiments.PrintAblationGranularity(os.Stdout, gran)
		return nil
	})
}

// writeMetrics dumps the obs registry snapshot collected across the run,
// wrapped with the hardware metadata that makes its numbers attributable.
func writeMetrics(path string) {
	blob, err := obs.SnapshotJSON()
	if err != nil {
		log.Fatalf("mhbench: snapshotting metrics: %v", err)
	}
	doc := map[string]any{
		"meta":    experiments.RunMeta(),
		"metrics": json.RawMessage(blob),
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("mhbench: encoding metrics: %v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		log.Fatalf("mhbench: writing %s: %v", path, err)
	}
	fmt.Printf("wrote metrics snapshot to %s\n", path)
}
