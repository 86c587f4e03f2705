package dlv

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"modelhub/internal/atomicfile"
)

// Staging area (dlv add, paper Table II): paths registered with Add are
// picked up by the next Commit, snapshotting their contents into the object
// store, and the stage is cleared.

func (r *Repo) stagePath() string { return filepath.Join(r.root, dlvDir, "stage.json") }

// Add stages a repository-relative file for the next commit (dlv add). The
// file must exist under the repository root.
func (r *Repo) Add(relPath string) error {
	clean := filepath.Clean(relPath)
	if filepath.IsAbs(clean) || within(clean, "..") {
		return fmt.Errorf("%w: path %q must be repository-relative", ErrRepo, relPath)
	}
	if within(clean, dlvDir) {
		return fmt.Errorf("%w: cannot stage repository metadata %q", ErrRepo, relPath)
	}
	abs := filepath.Join(r.root, clean)
	info, err := os.Stat(abs)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRepo, err)
	}
	if info.IsDir() {
		return fmt.Errorf("%w: %q is a directory; stage files individually", ErrRepo, relPath)
	}
	unlock, err := r.lockWriter()
	if err != nil {
		return err
	}
	defer unlock()
	staged, err := r.Staged()
	if err != nil {
		return err
	}
	for _, s := range staged {
		if s == clean {
			return nil // already staged
		}
	}
	staged = append(staged, clean)
	sort.Strings(staged)
	return r.writeStage(staged)
}

// within reports whether the clean relative path is dir or lies under it,
// comparing whole path components: "..data.csv" is not within "..".
func within(clean, dir string) bool {
	return clean == dir || strings.HasPrefix(clean, dir+string(filepath.Separator))
}

// Staged lists the currently staged repository-relative paths.
func (r *Repo) Staged() ([]string, error) {
	blob, err := os.ReadFile(r.stagePath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRepo, err)
	}
	var staged []string
	if err := json.Unmarshal(blob, &staged); err != nil {
		return nil, fmt.Errorf("%w: corrupt stage file: %v", ErrRepo, err)
	}
	return staged, nil
}

func (r *Repo) writeStage(staged []string) error {
	if len(staged) == 0 {
		err := os.Remove(r.stagePath())
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("%w: %v", ErrRepo, err)
		}
		return nil
	}
	blob, err := json.Marshal(staged)
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(r.stagePath(), blob); err != nil {
		return fmt.Errorf("%w: %v", ErrRepo, err)
	}
	return nil
}

// collectStaged reads the staged files' contents for a commit and clears
// the stage.
func (r *Repo) collectStaged() (map[string][]byte, error) {
	staged, err := r.Staged()
	if err != nil {
		return nil, err
	}
	if len(staged) == 0 {
		return nil, nil
	}
	out := make(map[string][]byte, len(staged))
	for _, rel := range staged {
		content, err := os.ReadFile(filepath.Join(r.root, rel))
		if err != nil {
			return nil, fmt.Errorf("%w: staged file %q: %v", ErrRepo, rel, err)
		}
		out[rel] = content
	}
	if err := r.writeStage(nil); err != nil {
		return nil, err
	}
	return out, nil
}
