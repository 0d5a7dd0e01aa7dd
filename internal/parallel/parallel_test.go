package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("default worker count must be positive")
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		got, err := Map(context.Background(), 100, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("len = %d", len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachEmptyAndSerial(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var order []int
	if err := ForEach(context.Background(), 5, 1, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestForEachBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 64, workers, func(int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, want <= %d", p, workers)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	// Indexes 7 and 23 fail; the smaller index must be reported.
	fail := func(i int) error {
		if i == 7 || i == 23 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), 64, workers, fail)
		if err == nil || err.Error() != "boom 7" {
			t.Fatalf("workers=%d: err = %v, want boom 7", workers, err)
		}
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	var ran atomic.Int64
	sentinel := errors.New("stop")
	err := ForEach(context.Background(), 10_000, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("ran %d tasks after early error", n)
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 1_000_000, 2, func(int) error {
			ran.Add(1)
			time.Sleep(200 * time.Microsecond)
			return nil
		})
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if ran.Load() >= 1_000_000 {
		t.Fatal("cancellation did not stop dispatch")
	}
}

func TestMemoCachesAndDedups(t *testing.T) {
	var m Memo[string, int]
	var computed atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	results := make([]int, callers)
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			v, err := m.Do("k", func() (int, error) {
				computed.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1 (singleflight)", n)
	}
	for _, v := range results {
		if v != 42 {
			t.Fatalf("results = %v", results)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMemoCachesErrors(t *testing.T) {
	var m Memo[int, int]
	sentinel := errors.New("bad key")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := m.Do(9, func() (int, error) {
			calls++
			return 0, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing fn ran %d times, want 1 (errors are cached)", calls)
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	var m Memo[int, int]
	for i := 0; i < 10; i++ {
		v, err := m.Do(i, func() (int, error) { return i * 2, nil })
		if err != nil || v != i*2 {
			t.Fatalf("Do(%d) = %d, %v", i, v, err)
		}
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d", m.Len())
	}
}
