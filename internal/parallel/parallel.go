// Package parallel provides the bounded worker pool of learning: ensemble
// construction runs its members and candidate scoring on it, and SPN
// structure learning its column-split tests and KMeans passes.
package parallel

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the first error. After an error no new indices are dispatched
// (in-flight calls run to completion). workers <= 1 runs sequentially with
// the same fail-fast behavior.
func ForEach(n, workers int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if failed.Load() {
					continue
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}
