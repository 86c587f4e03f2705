package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// WriteFile replaces a file whole; a write that cannot land (here the rename
// onto a directory fails) leaves the target as it was and no temp file.
func TestWriteFileReplacesOrLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, blob := range []string{"old", "new contents"} {
		if err := WriteFile(path, []byte(blob)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != blob {
			t.Fatalf("read back %q, %v; want %q", got, err, blob)
		}
	}
	blocked := filepath.Join(dir, "d")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, []byte("lost")); err == nil {
		t.Fatal("replacing a non-empty directory succeeded")
	}
	left, err := filepath.Glob(filepath.Join(dir, TempPrefix+"*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("temp files left behind: %v, %v", left, err)
	}
}
