package dlv

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"modelhub/internal/dnn"
)

// Version is the materialized view of one model version.
type Version struct {
	ID       int64
	Name     string
	Msg      string
	Created  string
	Accuracy float64
	Archived bool
	NetDef   *dnn.NetDef
	Hyper    map[string]string
	// Snapshots lists snapshot labels in iteration order (latest last).
	Snapshots []string
	// Files maps path -> object sha.
	Files map[string]string
	// ParentID is 0 for root versions.
	ParentID int64
}

// Version loads one model version by id.
func (r *Repo) Version(id int64) (*Version, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.find(id)
	if rec == nil {
		return nil, fmt.Errorf("%w: no version %d", ErrRepo, id)
	}
	return rec.version(), nil
}

// VersionByName returns the newest version with the given name.
func (r *Repo) VersionByName(name string) (*Version, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := len(r.versions) - 1; i >= 0; i-- {
		if r.versions[i].Name == name {
			return r.versions[i].version(), nil
		}
	}
	return nil, fmt.Errorf("%w: no version named %q", ErrRepo, name)
}

// List returns summaries of all versions in id order (dlv list).
func (r *Repo) List() ([]*Version, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Version, len(r.versions))
	for i := range r.versions {
		out[i] = r.versions[i].version()
	}
	return out, nil
}

// TrainLog returns the per-iteration measurements of a version (dlv desc);
// a version without any, or an unknown id, has an empty log.
func (r *Repo) TrainLog(id int64) ([]dnn.LogEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := []dnn.LogEntry{}
	if rec := r.find(id); rec != nil {
		out = append(out, rec.Log...)
	}
	return out, nil
}

// Lineage returns the chain of ancestor version ids, nearest first. It ends
// because every parent is an earlier version.
func (r *Repo) Lineage(id int64) ([]int64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []int64
	for rec := r.find(id); rec != nil && rec.ParentID != 0; rec = r.find(rec.ParentID) {
		out = append(out, rec.ParentID)
	}
	return out, nil
}

// DiffReport is the structural comparison of two versions (dlv diff).
type DiffReport struct {
	A, B          int64
	OnlyInA       []string // layer names
	OnlyInB       []string
	ChangedLayers []string // same name, different spec
	HyperChanged  map[string][2]string
	AccuracyDelta float64
}

// Diff compares two versions side by side via their metadata and network
// definitions.
func (r *Repo) Diff(aID, bID int64) (*DiffReport, error) {
	a, err := r.Version(aID)
	if err != nil {
		return nil, err
	}
	b, err := r.Version(bID)
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{A: aID, B: bID, HyperChanged: map[string][2]string{}}
	aNodes := map[string]dnn.LayerSpec{}
	for _, n := range a.NetDef.Nodes {
		aNodes[n.Name] = n
	}
	bNodes := map[string]dnn.LayerSpec{}
	for _, n := range b.NetDef.Nodes {
		bNodes[n.Name] = n
	}
	for name, an := range aNodes {
		bn, ok := bNodes[name]
		if !ok {
			rep.OnlyInA = append(rep.OnlyInA, name)
			continue
		}
		if an != bn {
			rep.ChangedLayers = append(rep.ChangedLayers, name)
		}
	}
	for name := range bNodes {
		if _, ok := aNodes[name]; !ok {
			rep.OnlyInB = append(rep.OnlyInB, name)
		}
	}
	sort.Strings(rep.OnlyInA)
	sort.Strings(rep.OnlyInB)
	sort.Strings(rep.ChangedLayers)
	keys := map[string]bool{}
	for k := range a.Hyper {
		keys[k] = true
	}
	for k := range b.Hyper {
		keys[k] = true
	}
	for k := range keys {
		if a.Hyper[k] != b.Hyper[k] {
			rep.HyperChanged[k] = [2]string{a.Hyper[k], b.Hyper[k]}
		}
	}
	rep.AccuracyDelta = b.Accuracy - a.Accuracy
	return rep, nil
}

// Describe renders a human-readable description of a version (dlv desc).
func (r *Repo) Describe(id int64) (string, error) {
	v, err := r.Version(id)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "model version %d: %s\n", v.ID, v.Name)
	fmt.Fprintf(&b, "  created:  %s\n", v.Created)
	fmt.Fprintf(&b, "  message:  %s\n", v.Msg)
	fmt.Fprintf(&b, "  accuracy: %.4f\n", v.Accuracy)
	fmt.Fprintf(&b, "  archived: %v\n", v.Archived)
	if v.ParentID != 0 {
		fmt.Fprintf(&b, "  parent:   %d\n", v.ParentID)
	}
	fmt.Fprintf(&b, "  network (%d layers):\n", len(v.NetDef.Nodes))
	order, err := v.NetDef.TopoOrder()
	if err != nil {
		return "", err
	}
	for _, name := range order {
		fmt.Fprintf(&b, "    %-10s %s\n", name, v.NetDef.Node(name).Kind)
	}
	if len(v.Hyper) > 0 {
		fmt.Fprintf(&b, "  hyperparameters:\n")
		for _, k := range slices.Sorted(maps.Keys(v.Hyper)) {
			fmt.Fprintf(&b, "    %s = %s\n", k, v.Hyper[k])
		}
	}
	fmt.Fprintf(&b, "  snapshots: %s\n", strings.Join(v.Snapshots, ", "))
	return b.String(), nil
}
