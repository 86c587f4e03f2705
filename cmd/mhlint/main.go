// Command mhlint runs ModelHub's custom static-analysis suite: errcheck
// (error propagation in internal/) and detpath (map-iteration order kept
// out of the bit-identical numeric packages). See DESIGN.md,
// "Static analysis".
//
// Usage:
//
//	mhlint [-suppressed] [-list] [-json FILE] [packages...]
//
// Packages default to ./... (the whole module). Exit codes: 0 clean,
// 1 unsuppressed findings, 2 usage or load failure. Findings are reported
// as file:line:col [analyzer] message and suppressed in place with
//
//	//mhlint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it; every unsuppressed
// finding fails the run. -json writes the full machine-readable report
// ("-" for stdout) for CI artifacts.
package main

import (
	"flag"
	"fmt"
	"os"

	"modelhub/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	suppressed := flag.Bool("suppressed", false, "also print suppressed findings with their ignore reasons")
	jsonOut := flag.String("json", "", "write the machine-readable report to `file` (\"-\" for stdout)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mhlint [flags] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := lint.Load(".", flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhlint:", err)
		os.Exit(2)
	}
	res := lint.Run(pkgs)
	for _, f := range res.Findings {
		fmt.Println(f)
	}
	if *suppressed {
		for _, f := range res.Suppressed {
			fmt.Printf("%s (suppressed: %s)\n", f, f.SuppressedBy)
		}
	}

	if *jsonOut != "" {
		module, rel := "", func(p string) string { return p }
		if len(pkgs) > 0 {
			module, rel = pkgs[0].Module, lint.ModuleRel(pkgs[0].Root)
		}
		data, err := lint.Report(module, len(pkgs), res.Findings, res.Suppressed, rel).Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mhlint:", err)
			os.Exit(2)
		}
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mhlint:", err)
			os.Exit(2)
		}
	}

	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "mhlint: %d finding(s) in %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
}
