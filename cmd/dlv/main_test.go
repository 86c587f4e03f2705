package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"modelhub/internal/core"
	"modelhub/internal/data"
	"modelhub/internal/hub"
)

// The CLI is exercised through run() directly; stdout noise is fine under
// `go test` and the assertions are on state, not output text. Global flags,
// which main parses, go through runMain.

// TestMain runs main itself in place of the tests when runMain starts the
// test binary as a child with DLV_TEST_MAIN set.
func TestMain(m *testing.M) {
	if os.Getenv("DLV_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs `dlv args...` in a child process and returns its combined
// output and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DLV_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("dlv %v: %v", args, err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

func repoArgs(dir string, args ...string) []string {
	return append([]string{"-repo", dir}, args...)
}

func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "init", []string{"-repo", dir}); err == nil {
		t.Fatal("double init must fail")
	}
	// Stage a file, train two versions (one fine-tuned).
	if err := os.WriteFile(filepath.Join(dir, "notes.md"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "add", repoArgs(dir, "notes.md")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "lenet-v1", "-epochs", "1", "-checkpoint-every", "8", "-seed", "1")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "lenet-v2", "-epochs", "1", "-lr", "0.01", "-parent", "1", "-seed", "2")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "copy", repoArgs(dir, "-from", "1", "-name", "scaffold")); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range [][2]string{{"list", ""}, {"desc", "1"}} {
		args := repoArgs(dir)
		if cmd[1] != "" {
			args = repoArgs(dir, "-v", cmd[1])
		}
		if err := run(context.Background(), cmd[0], args); err != nil {
			t.Fatalf("%s: %v", cmd[0], err)
		}
	}
	if err := run(context.Background(), "diff", repoArgs(dir, "-a", "1", "-b", "2")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "query", repoArgs(dir, `select m where m.name like "lenet%"`)); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "archive", repoArgs(dir, "-algo", "pas-mt", "-alpha", "2")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "eval", repoArgs(dir, "-v", "2", "-n", "20")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "eval", repoArgs(dir, "-v", "2", "-n", "10", "-progressive")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "eval", repoArgs(dir, "-v", "2", "-n", "10", "-prefix", "2")); err != nil {
		t.Fatal(err)
	}
}

func TestCLIHubRoundTrip(t *testing.T) {
	srv, err := hub.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "shared", "-epochs", "1", "-seed", "3")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "publish", repoArgs(dir, "-remote", ts.URL, "-name", "cli-repo")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "search", []string{"-remote", ts.URL, "-q", "shared"}); err != nil {
		t.Fatal(err)
	}
	dest := t.TempDir()
	if err := run(context.Background(), "pull", []string{"-remote", ts.URL, "-name", "cli-repo", "-dest", dest}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "list", repoArgs(dest)); err != nil {
		t.Fatal(err)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "list", repoArgs(dir)); err == nil {
		t.Fatal("list outside a repo must fail")
	}
	if err := run(context.Background(), "bogus", nil); err == nil {
		t.Fatal("unknown command must fail")
	}
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir)); err == nil {
		t.Fatal("train without -name must fail")
	}
	if err := run(context.Background(), "copy", repoArgs(dir)); err == nil {
		t.Fatal("copy without flags must fail")
	}
	if err := run(context.Background(), "desc", repoArgs(dir)); err == nil {
		t.Fatal("desc without -v must fail")
	}
	if err := run(context.Background(), "diff", repoArgs(dir)); err == nil {
		t.Fatal("diff without ids must fail")
	}
	if err := run(context.Background(), "eval", repoArgs(dir)); err == nil {
		t.Fatal("eval without -v must fail")
	}
	if err := run(context.Background(), "query", repoArgs(dir)); err == nil {
		t.Fatal("query without a statement must fail")
	}
	if err := run(context.Background(), "query", repoArgs(dir, "not a query")); err == nil {
		t.Fatal("bad DQL must fail")
	}
	if err := run(context.Background(), "add", repoArgs(dir)); err == nil {
		t.Fatal("add without files must fail")
	}
	if err := run(context.Background(), "publish", repoArgs(dir)); err == nil {
		t.Fatal("publish without remote must fail")
	}
	if err := run(context.Background(), "search", nil); err == nil {
		t.Fatal("search without remote must fail")
	}
	if err := run(context.Background(), "pull", nil); err == nil {
		t.Fatal("pull without flags must fail")
	}
}

func TestCLIHTMLReports(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "m1", "-epochs", "1", "-seed", "4")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "m2", "-epochs", "1", "-lr", "0.05", "-seed", "5")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cmd  string
		args []string
	}{
		{"list", repoArgs(dir)},
		{"desc", repoArgs(dir, "-v", "1")},
		{"diff", repoArgs(dir, "-a", "1", "-b", "2")},
	} {
		out := filepath.Join(t.TempDir(), c.cmd+".html")
		if err := run(context.Background(), c.cmd, append(c.args, "-html", out)); err != nil {
			t.Fatalf("%s -html: %v", c.cmd, err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(blob), "<!DOCTYPE html>") {
			t.Fatalf("%s: not an HTML document", c.cmd)
		}
	}
}

func TestCLIPlot(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "m", "-epochs", "1", "-seed", "6")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "archive", repoArgs(dir, "-algo", "mst")); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "weights.html")
	// Plot from 2 byte planes only — the paper's partial-retrieval use case.
	if err := run(context.Background(), "plot", repoArgs(dir, "-v", "1", "-prefix", "2", "-o", out)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "<svg") {
		t.Fatal("plot output missing SVG")
	}
	if err := run(context.Background(), "plot", repoArgs(dir, "-v", "1", "-layer", "ghost", "-o", out)); err == nil {
		t.Fatal("unknown layer must fail")
	}
}

func TestCLIEvalWithDataFile(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "m", "-epochs", "1", "-seed", "8")); err != nil {
		t.Fatal(err)
	}
	points := filepath.Join(t.TempDir(), "points.json")
	if err := data.SaveExamples(points, core.TestSet(15, 77)); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "eval", repoArgs(dir, "-v", "1", "-data", points)); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "eval", repoArgs(dir, "-v", "1", "-data", "/nonexistent.json")); err == nil {
		t.Fatal("missing data file must fail")
	}
}

func TestCLIDiffWeights(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "a", "-epochs", "1", "-seed", "9")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "b", "-epochs", "1", "-parent", "1", "-lr", "0.01", "-seed", "10")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "diff", repoArgs(dir, "-a", "1", "-b", "2", "-weights")); err != nil {
		t.Fatal(err)
	}
}

func TestCLIHistory(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "m", "-epochs", "1", "-checkpoint-every", "8", "-seed", "11")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "history", repoArgs(dir, "-v", "1", "-n", "20")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "history", repoArgs(dir)); err == nil {
		t.Fatal("history without -v must fail")
	}
}

func TestCLIRepack(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "m", "-epochs", "1", "-checkpoint-every", "8", "-seed", "21")); err != nil {
		t.Fatal(err)
	}
	// Before any archive exists, repack must fail with an error, not panic.
	if err := run(context.Background(), "repack", repoArgs(dir)); err == nil {
		t.Fatal("repack before archive must fail")
	}
	if err := run(context.Background(), "archive", repoArgs(dir, "-algo", "pas-mt", "-alpha", "2")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "repack", repoArgs(dir)); err != nil {
		t.Fatal(err)
	}
	// The archive still checks out after the re-plan.
	if err := run(context.Background(), "eval", repoArgs(dir, "-v", "1", "-n", "10")); err != nil {
		t.Fatal(err)
	}
}

// Global flags placed after the subcommand must fail loudly, naming the
// misplaced flag — previously they were silently swallowed as positional
// arguments. -v is no global flag: only the subcommands that take a version
// id define it.
func TestCLIMisplacedGlobalFlags(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), "init", []string{"-repo", dir}); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), "list", repoArgs(dir, "-v"))
	if err == nil || strings.Contains(err.Error(), "before the subcommand") || !strings.Contains(err.Error(), "not defined: -v") {
		t.Fatalf("list -v: got %v, want list's unknown-flag error naming -v", err)
	}
	err = run(context.Background(), "list", repoArgs(dir, "-log-level=debug"))
	if err == nil || !strings.Contains(err.Error(), "before the subcommand") || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("list -log-level=debug: got %v, want misplaced-global-flag error naming -log-level", err)
	}
	// Same when the flag parser itself rejects the token (flag position
	// rather than trailing argument).
	err = run(context.Background(), "repack", append([]string{"-log-level", "debug"}, repoArgs(dir)...))
	if err == nil || !strings.Contains(err.Error(), "before the subcommand") {
		t.Fatalf("repack -log-level: got %v, want misplaced-global-flag error", err)
	}
	// eval and desc define their own -v (version id); it must keep working.
	if err := run(context.Background(), "train", repoArgs(dir, "-name", "m", "-epochs", "1", "-seed", "22")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "eval", repoArgs(dir, "-v", "1", "-n", "10")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "desc", repoArgs(dir, "-v", "1")); err != nil {
		t.Fatalf("desc -v 1: %v", err)
	}
	// Before the subcommand, -log-level is accepted and -v is refused.
	if out, code := runMain(t, "-log-level", "info", "list", "-repo", dir); code != 0 {
		t.Fatalf("dlv -log-level info list: exit %d\n%s", code, out)
	}
	if out, code := runMain(t, "-v", "list", "-repo", dir); code != 2 || !strings.Contains(out, "flag provided but not defined: -v") {
		t.Fatalf("dlv -v list: exit %d\n%s\nwant exit 2 naming the undefined flag", code, out)
	}
}
