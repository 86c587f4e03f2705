package dql

import (
	"math"
	"math/rand"
	"reflect"
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

// TestEvaluateParallelBitIdentical is the determinism contract of parallel
// model enumeration: at any worker count, evaluate must return candidates
// bit-identical to sequential execution — same losses, same accuracies, and
// the same keep-clause survivors in the same order.
func TestEvaluateParallelBitIdentical(t *testing.T) {
	_, eng := populated(t)
	for _, q := range []struct {
		text string
		kept int
	}{{gridQuery, 4}, {gridByAcc, 32}} {
		eng.SetWorkers(1)
		seq, err := eng.Run(q.text)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Candidates) != q.kept {
			t.Fatalf("sequential candidates = %d, want %d", len(seq.Candidates), q.kept)
		}
		for _, workers := range []int{2, 4, 8} {
			eng.SetWorkers(workers)
			par, err := eng.Run(q.text)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if len(par.Candidates) != len(seq.Candidates) {
				t.Fatalf("workers=%d: %d candidates, sequential had %d",
					workers, len(par.Candidates), len(seq.Candidates))
			}
			for i, c := range par.Candidates {
				s := seq.Candidates[i]
				if math.Float64bits(c.Loss) != math.Float64bits(s.Loss) ||
					math.Float64bits(c.Acc) != math.Float64bits(s.Acc) {
					t.Fatalf("workers=%d candidate %d: (loss %v, acc %v) != sequential (loss %v, acc %v)",
						workers, i, c.Loss, c.Acc, s.Loss, s.Acc)
				}
				if c.Def.Name != s.Def.Name ||
					c.Config.BaseLR != s.Config.BaseLR ||
					c.Config.Momentum != s.Config.Momentum ||
					c.Config.Batch != s.Config.Batch ||
					c.Config.InputData != s.Config.InputData {
					t.Fatalf("workers=%d candidate %d: survivor (%s, %+v) != sequential (%s, %+v)",
						workers, i, c.Def.Name, c.Config, s.Def.Name, s.Config)
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
// error, not hang or panic, under parallel execution.
func TestEvaluateParallelFirstErrorWins(t *testing.T) {
	_, eng := populated(t)
	eng.SetWorkers(4)
	_, err := eng.Run(`evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.base_lr in [0.1, 0.01, 0.001] and config.input_data in ["nope"]
		keep top(1, m["loss"], 4)`)
	if err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

// TestEvaluateParallelWithConcurrentGemm runs parallel enumeration while
// other goroutines hammer the shared GEMM pool — the cross-subsystem race
// test (run under -race via make test-race).
func TestEvaluateParallelWithConcurrentGemm(t *testing.T) {
	_, eng := populated(t)
	eng.SetWorkers(4)
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

// TestSetWorkersClamp pins the documented clamp rules: negatives restore the
// GOMAXPROCS default (stored as 0), values above 1024 clamp to 1024, and the
// previous setting is returned.
func TestSetWorkersClamp(t *testing.T) {
	eng := NewEngine(nil)
	if got := eng.SetWorkers(-7); got != 0 {
		t.Fatalf("initial setting = %d, want 0", got)
	}
	if got := eng.Workers(); got != 0 {
		t.Fatalf("negative clamps to %d, want 0 (GOMAXPROCS default)", got)
	}
	eng.SetWorkers(1 << 20)
	if got := eng.Workers(); got != 1024 {
		t.Fatalf("absurd setting clamps to %d, want 1024", got)
	}
	if got := eng.SetWorkers(2); got != 1024 {
		t.Fatalf("previous setting = %d, want 1024", got)
	}
	if got := eng.Workers(); got != 2 {
		t.Fatalf("Workers = %d, want 2", got)
	}
}

// TestSetWorkersConcurrent retunes the worker bound from several goroutines
// while an evaluate statement runs — under -race this asserts the knob is
// safe mid-flight, and the grid result must stay bit-identical to the
// sequential baseline regardless of what the tuners did.
func TestSetWorkersConcurrent(t *testing.T) {
	_, eng := populated(t)
	eng.SetWorkers(1)
	seq, err := eng.Run(gridQuery)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng.SetWorkers((g+i)%6 - 1) // sweeps -1..4 through the clamp
				if w := eng.Workers(); w < 0 || w > 1024 {
					t.Errorf("Workers out of range: %d", w)
					return
				}
			}
		}(g)
	}
	eng.SetWorkers(4)
	par, err := eng.Run(gridQuery)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Candidates) != len(seq.Candidates) {
		t.Fatalf("candidates = %d, want %d", len(par.Candidates), len(seq.Candidates))
	}
	for i, c := range par.Candidates {
		s := seq.Candidates[i]
		if math.Float64bits(c.Loss) != math.Float64bits(s.Loss) ||
			math.Float64bits(c.Acc) != math.Float64bits(s.Acc) {
			t.Fatalf("candidate %d diverged under concurrent retuning", i)
		}
	}
}
