// Package parallel provides the bounded fan-out machinery used to spread
// independent simulations across CPU cores: a worker pool with deterministic
// result ordering (ForEach/Map) and a singleflight-style memo cache (Memo)
// that deduplicates concurrent requests for the same key.
//
// The concurrency model mirrors the simulator's constraints: each
// discrete-event sim.Engine is confined to a single goroutine, so parallelism
// lives strictly *across* independent simulations. Because every simulation
// is deterministic in its inputs and results are aggregated in input-index
// order, a parallel sweep is bit-identical to its serial counterpart.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n itself when positive,
// otherwise GOMAXPROCS. Pass 1 to force the serial path.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines. Indexes are dispatched in increasing order; after the first
// failure (or context cancellation) no new indexes are dispatched, already
// running calls finish, and the error with the smallest index among the
// calls that ran is returned — so the reported error is deterministic for a
// deterministic fn. With workers == 1 it degenerates to a plain serial loop.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and returns the results ordered by input index, regardless of
// completion order. On error the results are discarded and the
// smallest-index error is returned (see ForEach).
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
