package par

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// starts records the indices f was called with, in call order.
type starts struct {
	mu  sync.Mutex
	idx []int
}

func (s *starts) add(i int) {
	s.mu.Lock()
	s.idx = append(s.idx, i)
	s.mu.Unlock()
}

func (s *starts) sorted() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.idx)
	sort.Ints(out)
	return out
}

// The first width indices meet at a barrier, so all of them are in flight
// at once, then fail from the highest down: index width-1 fails first in
// time and index 0 last. For must return index 0's error, and start nothing
// else, since every worker has seen its own failure before it would claim
// another index.
func TestForLowestFailingIndexWins(t *testing.T) {
	const width, n = 4, 100
	for run := 0; run < 20; run++ {
		var st starts
		var barrier sync.WaitGroup
		barrier.Add(width)
		failedAfter := make([]chan struct{}, width) // closed just before index i fails
		for i := range failedAfter {
			failedAfter[i] = make(chan struct{})
		}
		err := For(n, width, func(i int) error {
			st.add(i)
			if i >= width {
				return nil
			}
			barrier.Done()
			barrier.Wait()
			if i < width-1 {
				<-failedAfter[i+1]
			}
			close(failedAfter[i])
			return fmt.Errorf("index %d", i)
		})
		if err == nil || err.Error() != "index 0" {
			t.Fatalf("run %d: For returned %v, want index 0's error", run, err)
		}
		if got := st.sorted(); !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Fatalf("run %d: started %v after every worker failed, want [0 1 2 3]", run, got)
		}
	}
}

// An index fails while the others succeed: whatever the schedule, For
// returns that error, every index below it has run, and the indices that
// ran are a prefix of 0..n-1 (they start in increasing order).
func TestForStopsAfterFailure(t *testing.T) {
	const n, fail = 1000, 37
	wantErr := errors.New("fail")
	for _, width := range []int{1, 2, 4, 8} {
		var st starts
		err := For(n, width, func(i int) error {
			st.add(i)
			if i == fail {
				return wantErr
			}
			runtime.Gosched()
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("width %d: For returned %v", width, err)
		}
		got := st.sorted()
		for j, i := range got {
			if i != j {
				t.Fatalf("width %d: started indices %v are not a prefix", width, got)
			}
		}
		if len(got) <= fail || len(got) == n {
			t.Fatalf("width %d: %d indices started around a failure at %d", width, len(got), fail)
		}
		if width == 1 && len(got) != fail+1 {
			t.Fatalf("width 1: %d indices started, want %d", len(got), fail+1)
		}
	}
}

// No more than width calls are ever in flight, and the first width meet at
// a barrier, so exactly width are at once.
func TestForBoundsInFlight(t *testing.T) {
	const width, n = 3, 300
	var inFlight, peak atomic.Int32
	var barrier sync.WaitGroup
	barrier.Add(width)
	err := For(n, width, func(i int) error {
		now := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		if i < width {
			barrier.Done()
			barrier.Wait()
		}
		runtime.Gosched()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != width {
		t.Fatalf("peak in flight %d, want %d", p, width)
	}
}

// With width 0 or 1, or n 0 or 1, f runs on the calling goroutine, in
// order, and stops at the first failure.
func TestForInline(t *testing.T) {
	stop := errors.New("stop")
	for _, c := range []struct{ n, width, fail int }{
		{0, 0, -1}, {0, 4, -1}, {1, 4, -1}, {1, 4, 0}, {5, 0, -1}, {5, 1, -1}, {5, -3, -1}, {5, 1, 2}, {5, 0, 0},
	} {
		before := runtime.NumGoroutine()
		var got []int
		err := For(c.n, c.width, func(i int) error {
			got = append(got, i) // unsynchronized: -race fails if this is not inline
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("n %d width %d: %d goroutines inside f, %d before For", c.n, c.width, g, before)
			}
			if i == c.fail {
				return stop
			}
			return nil
		})
		want := []int{}
		for i := 0; i < c.n && (c.fail < 0 || i <= c.fail); i++ {
			want = append(want, i)
		}
		if !slices.Equal(got, want) {
			t.Errorf("n %d width %d: calls %v, want %v", c.n, c.width, got, want)
		}
		if (c.fail >= 0) != errors.Is(err, stop) {
			t.Errorf("n %d width %d: For returned %v", c.n, c.width, err)
		}
	}
}

// By the time For returns, every f it started has returned and no f runs
// afterwards; its worker goroutines are gone, not parked.
func TestForLeavesNothingRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, fail := range []int{-1, 0, 50, 999} {
		var inFlight atomic.Int32
		var returned atomic.Bool
		err := For(1000, 8, func(i int) error {
			if returned.Load() {
				t.Error("f called after For returned")
			}
			inFlight.Add(1)
			defer inFlight.Add(-1)
			runtime.Gosched()
			if i == fail {
				return errors.New("fail")
			}
			return nil
		})
		returned.Store(true)
		if (err != nil) != (fail >= 0) {
			t.Fatalf("fail at %d: For returned %v", fail, err)
		}
		if c := inFlight.Load(); c != 0 {
			t.Fatalf("fail at %d: %d calls of f still running after For returned", fail, c)
		}
	}
	// A worker's last act after its final index is to return, so its exit
	// can trail For's return by a moment; a leaked worker never exits.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after For returned, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
