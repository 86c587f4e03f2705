package dlv

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"modelhub/internal/catalog"
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
	// Log holds per-iteration training measurements.
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
	if in.Name == "" {
		return 0, fmt.Errorf("%w: commit needs a model name", ErrRepo)
	}
	if in.NetDef == nil {
		return 0, fmt.Errorf("%w: commit needs a network definition", ErrRepo)
	}
	if err := in.NetDef.Validate(); err != nil {
		return 0, err
	}
	if in.ParentID != 0 {
		if _, ok, err := r.db.Get("model_version", in.ParentID); err != nil {
			return 0, err
		} else if !ok {
			return 0, fmt.Errorf("%w: parent version %d does not exist", ErrRepo, in.ParentID)
		}
	}
	id, err = r.nextVersionID()
	if err != nil {
		return 0, err
	}
	ndJSON, err := in.NetDef.ToJSON()
	if err != nil {
		return 0, err
	}
	if err := r.db.Insert("model_version", catalog.Row{
		"id": id, "name": in.Name, "netdef": string(ndJSON), "msg": in.Msg,
		"created": r.now().UTC().Format(time.RFC3339), "accuracy": finiteOr(in.Accuracy, 0),
		"archived": false,
	}); err != nil {
		return 0, err
	}
	for _, n := range in.NetDef.Nodes {
		attrs, err := json.Marshal(n)
		if err != nil {
			return 0, err
		}
		if err := r.db.Insert("node", catalog.Row{
			"version_id": id, "name": n.Name, "kind": n.Kind, "attrs": string(attrs),
		}); err != nil {
			return 0, err
		}
	}
	for _, e := range in.NetDef.Edges {
		if err := r.db.Insert("edge", catalog.Row{"version_id": id, "efrom": e.From, "eto": e.To}); err != nil {
			return 0, err
		}
	}
	if in.ParentID != 0 {
		if err := r.db.Insert("parent", catalog.Row{"base": in.ParentID, "derived": id, "msg": in.Msg}); err != nil {
			return 0, err
		}
	}
	for _, k := range slices.Sorted(maps.Keys(in.Hyper)) {
		if err := r.db.Insert("metadata", catalog.Row{"version_id": id, "mkey": k, "mvalue": in.Hyper[k]}); err != nil {
			return 0, err
		}
	}
	for _, le := range in.Log {
		if err := r.db.Insert("trainlog", catalog.Row{
			"version_id": id, "iter": int64(le.Iter),
			// Diverged runs produce NaN/Inf losses; clamp so the catalog
			// (JSON-backed) can always record the row.
			"loss": finiteOr(le.Loss, math.MaxFloat64),
			"acc":  finiteOr(le.Accuracy, 0),
			"lr":   finiteOr(le.LR, 0),
		}); err != nil {
			return 0, err
		}
	}
	var raw []rawSnapshot
	for _, ck := range in.Checkpoints {
		label := fmt.Sprintf("ckpt-%06d", ck.Iter)
		raw = append(raw, rawSnapshot{label, ck.Weights})
		if err := r.db.Insert("snapshot", catalog.Row{
			"version_id": id, "snap": label, "iter": int64(ck.Iter), "latest": false,
		}); err != nil {
			return 0, err
		}
	}
	if in.Final != nil {
		raw = append(raw, rawSnapshot{LatestSnap, in.Final})
		maxIter := int64(0)
		if n := len(in.Checkpoints); n > 0 {
			maxIter = int64(in.Checkpoints[n-1].Iter)
		}
		if err := r.db.Insert("snapshot", catalog.Row{
			"version_id": id, "snap": LatestSnap, "iter": maxIter, "latest": true,
		}); err != nil {
			return 0, err
		}
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
	for _, path := range slices.Sorted(maps.Keys(files)) {
		sha, err := r.putObject(files[path])
		if err != nil {
			return 0, err
		}
		if err := r.db.Insert("file", catalog.Row{"version_id": id, "path": path, "sha": sha}); err != nil {
			return 0, err
		}
	}
	if err := r.db.Save(); err != nil {
		return 0, err
	}
	return id, nil
}

func (r *Repo) nextVersionID() (int64, error) {
	rows, err := r.db.Select("model_version", catalog.Query{OrderBy: "id", Desc: true, Limit: 1})
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 1, nil
	}
	return rows[0]["id"].(int64) + 1, nil
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
