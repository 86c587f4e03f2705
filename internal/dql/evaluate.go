package dql

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
	"modelhub/internal/obs"
	"modelhub/internal/par"
)

// EvalConfig is the tuning config template of an evaluate statement (`with
// config = ...`). It is JSON so configs can live in files committed to DLV.
type EvalConfig struct {
	BaseLR    float64 `json:"base_lr"`
	Momentum  float64 `json:"momentum"`
	Batch     int     `json:"batch"`
	InputData string  `json:"input_data"`
	// NetLR maps layer selectors to per-layer learning-rate overrides (the
	// `config.net["conv*"].lr` dimension); selectors resolve against each
	// candidate's layers at training time.
	NetLR map[string]float64 `json:"net_lr,omitempty"`
}

// cloneNetLR deep-copies the per-layer map so grid expansion does not alias.
func (c EvalConfig) cloneNetLR() EvalConfig {
	if c.NetLR == nil {
		return c
	}
	out := make(map[string]float64, len(c.NetLR))
	for k, v := range c.NetLR {
		out[k] = v
	}
	c.NetLR = out
	return c
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.BaseLR == 0 {
		c.BaseLR = 0.05
	}
	if c.Batch == 0 {
		c.Batch = 8
	}
	if c.InputData == "" {
		c.InputData = "digits"
	}
	return c
}

// autoGrids are the engine's default search grids for `vary config.<key>
// auto` (the paper's grid-search default).
var autoGrids = map[string][]Value{
	"base_lr":  {{Num: 0.1, IsNum: true}, {Num: 0.01, IsNum: true}, {Num: 0.001, IsNum: true}},
	"momentum": {{Num: 0, IsNum: true}, {Num: 0.9, IsNum: true}},
	"batch":    {{Num: 8, IsNum: true}, {Num: 16, IsNum: true}},
	// Per-layer learning rates: full, reduced, frozen.
	"net.lr": {{Num: 0.1, IsNum: true}, {Num: 0.01, IsNum: true}, {Num: 0, IsNum: true}},
}

// execEvaluate implements Query 4: enumerate (model, hyperparameter)
// combinations, train each for the keep clause's iteration budget, and keep
// the survivors.
func (e *Engine) execEvaluate(s *EvaluateStmt) (kept []Candidate, err error) {
	ctx, span := obs.Start(context.Background(), "dql.evaluate")
	defer func() {
		if err != nil {
			span.SetError()
		}
		span.SetAttrInt("dql.kept", int64(len(kept)))
		span.End()
	}()
	defs, err := e.candidateDefs(s)
	if err != nil {
		return nil, err
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("%w: evaluate has no candidate models", ErrQuery)
	}
	var base EvalConfig
	if s.ConfigJSON != "" {
		if err := json.Unmarshal([]byte(s.ConfigJSON), &base); err != nil {
			return nil, fmt.Errorf("%w: parsing config: %v", ErrQuery, err)
		}
	}
	base = base.withDefaults()
	configs, err := expandGrid(base, s.Vary)
	if err != nil {
		return nil, err
	}
	// Enumerate the full (model, config) grid up front, then train the
	// candidates GOMAXPROCS at a time (par.For over dispatch positions). Each
	// candidate builds and trains its own Network with RNG seeding derived
	// only from the engine seed (never from scheduling), and results land at
	// their grid index, so the output — same losses, same accuracies, same
	// keep-clause survivors, or the error of the first failing position in
	// dispatch order — is the same at any GOMAXPROCS.
	var jobs []gridJob
	for _, def := range defs {
		for _, cfg := range configs {
			jobs = append(jobs, gridJob{def: def, cfg: cfg})
		}
	}
	results := make([]Candidate, len(jobs))
	span.SetAttrInt("dql.grid_size", int64(len(jobs)))
	order := dispatchOrder(jobs)
	poolStart := obsNow()
	err = par.For(len(jobs), runtime.GOMAXPROCS(0), func(n int) error {
		i := order[n]
		observeQueueWait(poolStart)
		var queueWait time.Duration
		if !poolStart.IsZero() {
			queueWait = time.Since(poolStart)
		}
		jobStart := obsNow()
		cand, err := e.traceCandidate(ctx, i, jobs[i].def, jobs[i].cfg, s.Keep.Iters, queueWait)
		if err != nil {
			return err
		}
		countCandidate(jobStart)
		results[i] = cand
		return nil
	})
	if err != nil {
		return nil, err
	}
	return applyKeep(results, s.Keep)
}

// gridJob is one (model, config) candidate of an evaluate grid.
type gridJob struct {
	def *dnn.NetDef
	cfg EvalConfig
}

// dispatchOrder is the order workers take grid indices in: longest first,
// so no worker is left alone on a long candidate at the end. With the
// iteration budget fixed, batch size sets the length; ties keep grid order.
func dispatchOrder(jobs []gridJob) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].cfg.Batch > jobs[order[b]].cfg.Batch })
	return order
}

func (e *Engine) candidateDefs(s *EvaluateStmt) ([]*dnn.NetDef, error) {
	var nested Stmt
	if s.FromName != "" {
		var ok bool
		nested, ok = e.named[s.FromName]
		if !ok {
			return nil, fmt.Errorf("%w: no registered query %q", ErrQuery, s.FromName)
		}
	} else {
		nested = s.FromQuery
	}
	res, err := e.Exec(nested)
	if err != nil {
		return nil, err
	}
	if res.Defs != nil {
		return res.Defs, nil
	}
	var defs []*dnn.NetDef
	for _, v := range newestPerName(res.Versions) {
		defs = append(defs, v.NetDef)
	}
	return defs, nil
}

// expandGrid builds the cartesian product of the vary dimensions over the
// base config.
func expandGrid(base EvalConfig, vary []VaryClause) ([]EvalConfig, error) {
	configs := []EvalConfig{base}
	for _, vc := range vary {
		values := vc.Values
		if vc.Auto {
			grid, ok := autoGrids[vc.Key]
			if !ok {
				return nil, fmt.Errorf("%w: no auto grid for config.%s", ErrQuery, vc.Key)
			}
			values = grid
		}
		if len(values) == 0 {
			return nil, fmt.Errorf("%w: vary config.%s has no values", ErrQuery, vc.Key)
		}
		var next []EvalConfig
		for _, cfg := range configs {
			for _, val := range values {
				nc := cfg.cloneNetLR()
				if err := assignConfig(&nc, vc, val); err != nil {
					return nil, err
				}
				next = append(next, nc)
			}
		}
		configs = next
	}
	return configs, nil
}

func assignConfig(cfg *EvalConfig, vc VaryClause, val Value) error {
	key := vc.Key
	switch key {
	case "net.lr":
		if !val.IsNum {
			return fmt.Errorf("%w: net lr needs numbers", ErrQuery)
		}
		if cfg.NetLR == nil {
			cfg.NetLR = map[string]float64{}
		}
		cfg.NetLR[vc.Selector] = val.Num
		return nil
	}
	switch key {
	case "base_lr":
		if !val.IsNum {
			return fmt.Errorf("%w: base_lr needs numbers", ErrQuery)
		}
		cfg.BaseLR = val.Num
	case "momentum":
		if !val.IsNum {
			return fmt.Errorf("%w: momentum needs numbers", ErrQuery)
		}
		cfg.Momentum = val.Num
	case "batch":
		if !val.IsNum {
			return fmt.Errorf("%w: batch needs numbers", ErrQuery)
		}
		cfg.Batch = int(val.Num)
	case "input_data":
		if val.IsNum {
			return fmt.Errorf("%w: input_data needs dataset names", ErrQuery)
		}
		cfg.InputData = val.Str
	default:
		return fmt.Errorf("%w: unknown config key %q", ErrQuery, key)
	}
	return nil
}

// traceCandidate runs trainCandidate under a per-candidate child span of
// the evaluate trace, carrying the grid index, model name, queue wait, and
// resulting loss/accuracy. The span ends on every path, including errors.
func (e *Engine) traceCandidate(ctx context.Context, idx int, def *dnn.NetDef, cfg EvalConfig,
	iters int, queueWait time.Duration) (Candidate, error) {
	ctx, cspan := obs.Start(ctx, "dql.candidate")
	cspan.SetAttrInt("dql.candidate", int64(idx))
	cspan.SetAttr("dql.model", def.Name)
	if queueWait > 0 {
		cspan.SetAttrInt("dql.queue_wait_ns", queueWait.Nanoseconds())
	}
	cand, err := e.trainCandidate(ctx, def, cfg, iters)
	if err != nil {
		cspan.SetError()
	} else {
		cspan.SetAttr("dql.loss", strconv.FormatFloat(cand.Loss, 'g', 6, 64))
		cspan.SetAttr("dql.acc", strconv.FormatFloat(cand.Acc, 'g', 6, 64))
	}
	cspan.End()
	return cand, err
}

// trainCandidate trains one (model, config) pair for the iteration budget
// and measures its loss and held-out accuracy.
func (e *Engine) trainCandidate(ctx context.Context, def *dnn.NetDef, cfg EvalConfig, iters int) (Candidate, error) {
	examples, ok := e.datasets[cfg.InputData]
	if !ok {
		return Candidate{}, fmt.Errorf("%w: unknown dataset %q (register it on the engine)", ErrQuery, cfg.InputData)
	}
	train, test := data.Split(examples, 0.8)
	net, err := dnn.Build(def, rand.New(rand.NewSource(e.Seed+1)))
	if err != nil {
		return Candidate{}, fmt.Errorf("%w: building %s: %v", ErrQuery, def.Name, err)
	}
	// The candidate network dies with this grid cell; hand its scratch
	// (im2col unrolls, activation volumes) back to the shared arena so
	// concurrent sessions recycle rather than reallocate.
	defer net.ReleaseScratch()
	layerLR, err := resolveNetLR(def, cfg.NetLR)
	if err != nil {
		return Candidate{}, err
	}
	res, err := dnn.Train(net, train, dnn.TrainConfig{
		Ctx:       ctx,
		Epochs:    1,
		BatchSize: cfg.Batch,
		LR:        cfg.BaseLR,
		Momentum:  cfg.Momentum,
		MaxIters:  iters,
		LogEvery:  max(1, iters/4),
		LayerLR:   layerLR,
		Seed:      e.Seed + 2,
	})
	if err != nil {
		return Candidate{}, err
	}
	loss := math.Inf(1)
	if n := len(res.Log); n > 0 {
		loss = res.Log[n-1].Loss
	}
	// Held-out accuracy, batched on the candidate's own network.
	return Candidate{Def: def, Config: cfg, Loss: loss, Acc: dnn.Evaluate(net, test)}, nil
}

// applyKeep sorts candidates by the keep metric and applies the top-k or
// threshold rule.
func applyKeep(cands []Candidate, keep KeepClause) ([]Candidate, error) {
	better := func(a, b Candidate) bool {
		if keep.Metric == "loss" {
			return a.Loss < b.Loss
		}
		return a.Acc > b.Acc
	}
	sort.SliceStable(cands, func(i, j int) bool { return better(cands[i], cands[j]) })
	switch keep.Kind {
	case "top":
		if keep.K < len(cands) {
			cands = cands[:keep.K]
		}
		return cands, nil
	case "above":
		var out []Candidate
		for _, c := range cands {
			if keep.Metric == "acc" && c.Acc >= keep.Threshold {
				out = append(out, c)
			}
			if keep.Metric == "loss" && c.Loss <= keep.Threshold {
				out = append(out, c)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown keep kind %q", ErrQuery, keep.Kind)
	}
}

// resolveNetLR expands selector-keyed learning-rate overrides to concrete
// layer names of the candidate definition.
func resolveNetLR(def *dnn.NetDef, netLR map[string]float64) (map[string]float64, error) {
	if len(netLR) == 0 {
		return nil, nil
	}
	out := map[string]float64{}
	for selSrc, lr := range netLR {
		sel, err := CompileSelector(selSrc)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, n := range def.Nodes {
			if !n.Parametric() {
				continue
			}
			if ok, _ := sel.Match(n.Name); ok {
				out[n.Name] = lr
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("%w: net lr selector %q matches no parametric layer of %s", ErrQuery, selSrc, def.Name)
		}
	}
	return out, nil
}
