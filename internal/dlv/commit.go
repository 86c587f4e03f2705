package dlv

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"modelhub/internal/dnn"
	"modelhub/internal/obs"
	"modelhub/internal/tensor"
)

// LatestSnap is the reserved snapshot label of a version's final weights.
const LatestSnap = "latest"

// CommitInput bundles everything a model version carries (paper Sec. III-A:
// model_version(name, id, N, W, M, F)).
type CommitInput struct {
	// Name is the human-readable model version name (required).
	Name string
	// Msg is the commit message.
	Msg string
	// NetDef is the network definition N (required).
	NetDef *dnn.NetDef
	// Hyper holds training hyperparameters recorded as metadata.
	Hyper map[string]string
	// Log holds per-iteration training measurements, in iteration order.
	Log []dnn.LogEntry
	// Checkpoints are the intermediate weight snapshots, in iteration order.
	Checkpoints []dnn.Checkpoint
	// Final holds the latest weights (required for trained versions; may be
	// nil for scaffolds).
	Final map[string]*tensor.Matrix
	// Accuracy is the held-out accuracy of the final weights.
	Accuracy float64
	// Files maps repo-relative paths to contents (scripts, configs, ...).
	Files map[string][]byte
	// ParentID links lineage (0 = no parent).
	ParentID int64
}

// Commit records a new model version and returns its id.
func (r *Repo) Commit(in CommitInput) (int64, error) {
	return r.CommitCtx(context.Background(), in)
}

// CommitCtx is Commit under a caller-supplied context, so the commit span
// joins the caller's trace instead of rooting its own.
func (r *Repo) CommitCtx(ctx context.Context, in CommitInput) (id int64, err error) {
	_, span := obs.Start(ctx, "dlv.commit")
	span.SetAttr("dlv.model", in.Name)
	defer func() {
		if err != nil {
			span.SetError()
		}
		span.SetAttrInt("dlv.version", id)
		span.End()
	}()
	unlock, err := r.lockWriter()
	if err != nil {
		return 0, err
	}
	defer unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	id = 1
	if n := len(r.versions); n > 0 {
		id = r.versions[n-1].ID + 1
	}
	rec := record{Version: Version{
		ID: id, Name: in.Name, Msg: in.Msg, Created: r.now().UTC().Format(time.RFC3339),
		Accuracy: finiteOr(in.Accuracy, 0), Hyper: cloneMap(in.Hyper), Files: map[string]string{},
		ParentID: in.ParentID,
	}}
	if in.NetDef != nil {
		rec.NetDef = in.NetDef.Clone()
	}
	for _, le := range in.Log {
		// Diverged runs produce NaN/Inf losses; clamp so the catalog
		// (JSON-backed) can always record the entry.
		rec.Log = append(rec.Log, dnn.LogEntry{
			Iter:     le.Iter,
			Loss:     finiteOr(le.Loss, math.MaxFloat64),
			Accuracy: finiteOr(le.Accuracy, 0),
			LR:       finiteOr(le.LR, 0),
		})
	}
	var raw []rawSnapshot
	for _, ck := range in.Checkpoints {
		raw = append(raw, rawSnapshot{fmt.Sprintf("ckpt-%06d", ck.Iter), ck.Weights})
	}
	if in.Final != nil {
		raw = append(raw, rawSnapshot{LatestSnap, in.Final})
	}
	for _, s := range raw {
		rec.Snapshots = append(rec.Snapshots, s.label)
	}
	if err := checkRecord(r.versions, &rec); err != nil {
		return 0, fmt.Errorf("%w: commit: %w", ErrRepo, err)
	}
	// The weights file is durable before the catalog that lists the
	// version is saved.
	if len(raw) > 0 {
		if err := r.writeRaw(id, raw); err != nil {
			return 0, err
		}
	}
	// Staged files (dlv add) merge with explicitly provided contents;
	// explicit contents win on path conflicts.
	staged, err := r.collectStaged()
	if err != nil {
		return 0, err
	}
	files := make(map[string][]byte, len(in.Files)+len(staged))
	for path, content := range staged {
		files[path] = content
	}
	for path, content := range in.Files {
		files[path] = content
	}
	for path, content := range files {
		if rec.Files[path], err = r.putObject(content); err != nil {
			return 0, err
		}
	}
	if err := r.saveCatalog(append(slices.Clip(r.versions), rec)); err != nil {
		return 0, err
	}
	return id, nil
}

// Copy scaffolds a new model version from an existing one (dlv copy): same
// network definition and metadata, no weights, lineage recorded.
func (r *Repo) Copy(srcID int64, newName, msg string) (int64, error) {
	v, err := r.Version(srcID)
	if err != nil {
		return 0, err
	}
	def := v.NetDef.Clone()
	def.Name = newName
	return r.Commit(CommitInput{
		Name:     newName,
		Msg:      msg,
		NetDef:   def,
		Hyper:    v.Hyper,
		ParentID: srcID,
	})
}

// finiteOr replaces non-finite floats with a fallback so diverged training
// metrics remain storable.
func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}
