// Package par runs the iterations of a loop on a bounded set of goroutines.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs f(0), …, f(n-1), at most max(width, 1) at a time; the calling
// goroutine is one of the workers. Indices start in increasing order. Once
// some f fails no new index starts, and For returns, after every f it
// started has returned, the error of the lowest failing index. That error
// does not depend on the schedule: an index stops being handed out only
// after a failure has been seen, so every lower index has already started
// and runs to completion. With width <= 1 or n <= 1, f runs inline, in
// order, and no goroutine is started.
func For(n, width int, f func(i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		lowest = n // index of first, the lowest failure recorded
		first  error
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := f(i); err != nil {
				mu.Lock()
				if i < lowest {
					lowest, first = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(width, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}
