package dql

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"modelhub/internal/tensor"
)

// gridQuery varies the batch size too, so the workers take the grid out of
// its order (dispatchOrder) and the results must still land at their index.
const gridQuery = `evaluate m
	from (select m1 where m1.name like "%net%")
	vary config.base_lr in [0.1, 0.01] and config.momentum in [0, 0.9] and config.batch in [8, 16]
	keep top(4, m["loss"], 6)`

// gridByAcc keeps the whole grid ranked by held-out accuracy, which ties
// often on the small test split. Ties keep grid order, so a candidate stored
// at the wrong index would reorder the survivors.
const gridByAcc = `evaluate m
	from (select m1 where m1.name like "%net%")
	vary config.base_lr in [0.1, 0.01] and config.momentum in [0, 0.9] and config.batch in [8, 16]
	keep top(32, m["acc"], 6)`

// gridReference trains an evaluate statement's candidates one at a time in
// grid order, outside the worker pool, and applies its keep clause: what the
// pool must return at every GOMAXPROCS, bit for bit and index for index.
func gridReference(t *testing.T, e *Engine, text string) []Candidate {
	t.Helper()
	stmt, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*EvaluateStmt)
	defs, err := e.candidateDefs(s)
	if err != nil {
		t.Fatal(err)
	}
	configs, err := expandGrid(EvalConfig{}.withDefaults(), s.Vary)
	if err != nil {
		t.Fatal(err)
	}
	var cands []Candidate
	for _, def := range defs {
		for _, cfg := range configs {
			c, err := e.trainCandidate(context.Background(), def, cfg, s.Keep.Iters)
			if err != nil {
				t.Fatal(err)
			}
			cands = append(cands, c)
		}
	}
	kept, err := applyKeep(cands, s.Keep)
	if err != nil {
		t.Fatal(err)
	}
	return kept
}

// TestEvaluateParallelBitIdentical is the determinism contract of parallel
// model enumeration: at any GOMAXPROCS, one worker included, evaluate must
// return candidates bit-identical to training the grid one candidate at a
// time in grid order — same losses, same accuracies, and the same
// keep-clause survivors in the same order.
func TestEvaluateParallelBitIdentical(t *testing.T) {
	_, eng := populated(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, q := range []struct {
		text string
		kept int
	}{{gridQuery, 4}, {gridByAcc, 32}} {
		seq := gridReference(t, eng, q.text)
		if len(seq) != q.kept {
			t.Fatalf("reference candidates = %d, want %d", len(seq), q.kept)
		}
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			par, err := eng.Run(q.text)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if len(par.Candidates) != len(seq) {
				t.Fatalf("GOMAXPROCS=%d: %d candidates, reference has %d",
					procs, len(par.Candidates), len(seq))
			}
			for i, c := range par.Candidates {
				s := seq[i]
				if math.Float64bits(c.Loss) != math.Float64bits(s.Loss) ||
					math.Float64bits(c.Acc) != math.Float64bits(s.Acc) {
					t.Fatalf("GOMAXPROCS=%d candidate %d: (loss %v, acc %v) != reference (loss %v, acc %v)",
						procs, i, c.Loss, c.Acc, s.Loss, s.Acc)
				}
				if c.Def.Name != s.Def.Name ||
					c.Config.BaseLR != s.Config.BaseLR ||
					c.Config.Momentum != s.Config.Momentum ||
					c.Config.Batch != s.Config.Batch ||
					c.Config.InputData != s.Config.InputData {
					t.Fatalf("GOMAXPROCS=%d candidate %d: survivor (%s, %+v) != reference (%s, %+v)",
						procs, i, c.Def.Name, c.Config, s.Def.Name, s.Config)
				}
			}
		}
	}
}

// TestDispatchOrderLongestFirst pins the order workers take grid indices in:
// descending batch size, grid order among equal batches.
func TestDispatchOrderLongestFirst(t *testing.T) {
	batches := []int{8, 16, 8, 32, 16, 8, 32}
	jobs := make([]gridJob, len(batches))
	for i, b := range batches {
		jobs[i].cfg.Batch = b
	}
	want := []int{3, 6, 1, 4, 0, 2, 5}
	if got := dispatchOrder(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	if got := dispatchOrder(nil); len(got) != 0 {
		t.Fatalf("empty grid dispatches %v", got)
	}
}

// TestEvaluateParallelFirstErrorWins: a grid whose candidates all fail (the
// dataset is registered but a config names a missing one) must surface an
// error, not hang or panic, with one worker or several.
func TestEvaluateParallelFirstErrorWins(t *testing.T) {
	_, eng := populated(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := eng.Run(`evaluate m
			from (select m1 where m1.name = "lenet")
			vary config.base_lr in [0.1, 0.01, 0.001] and config.input_data in ["nope"]
			keep top(1, m["loss"], 4)`)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: want error for unknown dataset", procs)
		}
	}
}

// TestEvaluateErrorIsFirstInDispatchOrder: when several candidates fail,
// evaluate returns the error of the first failing position in dispatch
// order, whichever failed first in time, at any GOMAXPROCS. All four
// candidates have batch 8, so dispatch order is grid order and position 0
// names "nope"; at GOMAXPROCS 4 a "nada" candidate can fail first.
func TestEvaluateErrorIsFirstInDispatchOrder(t *testing.T) {
	_, eng := populated(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const want = `dql: query error: unknown dataset "nope" (register it on the engine)`
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 20; run++ {
			_, err := eng.Run(`evaluate m
				from (select m1 where m1.name = "lenet")
				vary config.input_data in ["nope", "nada"] and config.base_lr in [0.1, 0.01]
				keep top(1, m["loss"], 4)`)
			if err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS=%d run %d: error %v, want %s", procs, run, err, want)
			}
		}
	}
}

// TestEvaluateParallelWithConcurrentGemm runs parallel enumeration while
// other goroutines hammer the shared GEMM pool — the cross-subsystem race
// test (run under -race via make test-race).
func TestEvaluateParallelWithConcurrentGemm(t *testing.T) {
	_, eng := populated(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(13))
	a := tensor.NewMatrix(48, 48)
	b := tensor.NewMatrix(48, 48)
	for i := range a.Data() {
		a.Data()[i] = float32(rng.NormFloat64())
		b.Data()[i] = float32(rng.NormFloat64())
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := tensor.NewMatrix(48, 48)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tensor.Gemm(out, a, b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	res, err := eng.Run(`evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.base_lr in [0.1, 0.01]
		keep top(2, m["loss"], 6)`)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
}
