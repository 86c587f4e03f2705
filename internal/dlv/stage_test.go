package dlv

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"modelhub/internal/zoo"
)

func writeRepoFile(t *testing.T, r *Repo, rel, content string) {
	t.Helper()
	abs := filepath.Join(r.Root(), rel)
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(abs, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestAddAndCommitStaged(t *testing.T) {
	r := initRepo(t)
	writeRepoFile(t, r, "train.sh", "#!/bin/sh\n")
	writeRepoFile(t, r, "configs/solver.cfg", "lr=0.1\n")
	if err := r.Add("train.sh"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("configs/solver.cfg"); err != nil {
		t.Fatal(err)
	}
	// Double add is idempotent.
	if err := r.Add("train.sh"); err != nil {
		t.Fatal(err)
	}
	staged, err := r.Staged()
	if err != nil || len(staged) != 2 {
		t.Fatalf("staged = %v, %v", staged, err)
	}
	id, err := r.Commit(CommitInput{Name: "m", NetDef: zoo.LeNet("m")})
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Files) != 2 {
		t.Fatalf("files = %v", v.Files)
	}
	content, err := r.GetObject(v.Files["configs/solver.cfg"])
	if err != nil || string(content) != "lr=0.1\n" {
		t.Fatalf("object = %q, %v", content, err)
	}
	// Stage cleared after commit.
	staged, err = r.Staged()
	if err != nil || len(staged) != 0 {
		t.Fatalf("stage not cleared: %v, %v", staged, err)
	}
}

func TestAddRejections(t *testing.T) {
	r := initRepo(t)
	if err := r.Add("/etc/passwd"); !errors.Is(err, ErrRepo) {
		t.Fatal("absolute path must be rejected")
	}
	if err := r.Add("../outside"); !errors.Is(err, ErrRepo) {
		t.Fatal("traversal must be rejected")
	}
	if err := r.Add(".dlv/catalog.json"); !errors.Is(err, ErrRepo) {
		t.Fatal("metadata must be rejected")
	}
	if err := r.Add("ghost.txt"); !errors.Is(err, ErrRepo) {
		t.Fatal("missing file must be rejected")
	}
	if err := os.MkdirAll(filepath.Join(r.Root(), "dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("dir"); !errors.Is(err, ErrRepo) {
		t.Fatal("directory must be rejected")
	}
}

// Add compares whole path components: a name that only starts with ".." or
// ".dlv" is an ordinary file, while the parent directory, a path through it,
// the metadata directory and a file in it are refused.
func TestAddChecksPathComponents(t *testing.T) {
	r := initRepo(t)
	for _, name := range []string{"..data.csv", ".dlvrc"} {
		writeRepoFile(t, r, name, "x")
	}
	for _, c := range []struct {
		path   string
		staged bool
	}{
		{"..data.csv", true},
		{".dlvrc", true},
		{"..", false},
		{"../x", false},
		{".dlv", false},
		{".dlv/catalog.json", false},
	} {
		err := r.Add(c.path)
		if c.staged && err != nil {
			t.Errorf("Add(%q) = %v, want it staged", c.path, err)
		}
		if !c.staged && !errors.Is(err, ErrRepo) {
			t.Errorf("Add(%q) = %v, want ErrRepo", c.path, err)
		}
	}
	if staged, err := r.Staged(); err != nil || !slices.Equal(staged, []string{"..data.csv", ".dlvrc"}) {
		t.Fatalf("Staged = %v, %v; want [..data.csv .dlvrc]", staged, err)
	}
}

func TestExplicitFilesWinOverStaged(t *testing.T) {
	r := initRepo(t)
	writeRepoFile(t, r, "note.md", "staged content")
	if err := r.Add("note.md"); err != nil {
		t.Fatal(err)
	}
	id, err := r.Commit(CommitInput{
		Name: "m", NetDef: zoo.LeNet("m"),
		Files: map[string][]byte{"note.md": []byte("explicit content")},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	content, err := r.GetObject(v.Files["note.md"])
	if err != nil || string(content) != "explicit content" {
		t.Fatalf("object = %q, %v", content, err)
	}
}

func TestStagedMissingAtCommit(t *testing.T) {
	r := initRepo(t)
	writeRepoFile(t, r, "temp.txt", "x")
	if err := r.Add("temp.txt"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(r.Root(), "temp.txt")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(CommitInput{Name: "m", NetDef: zoo.LeNet("m")}); !errors.Is(err, ErrRepo) {
		t.Fatal("commit with a vanished staged file must fail")
	}
}
