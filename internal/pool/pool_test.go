package pool

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachNFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int32
		err := ForEachNCtx(context.Background(), workers, 50, nil, func(_ context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			if i%10 == 3 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		// Every item still runs; the pool only records the first failure.
		if ran != 50 {
			t.Fatalf("workers=%d: ran %d of 50 items", workers, ran)
		}
	}
}

func TestForEachNEmpty(t *testing.T) {
	if err := ForEachNCtx(context.Background(), 8, 0, nil, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

type sumObserver struct {
	mu    sync.Mutex
	n     int
	total float64
}

func (o *sumObserver) Observe(s float64) {
	o.mu.Lock()
	o.n++
	o.total += s
	o.mu.Unlock()
}

func TestForEachNCtxCoversEveryItem(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [100]int32
		if err := ForEachNCtx(context.Background(), workers, len(hits), nil, func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestForEachNCoversEveryItem checks coverage with an observer attached:
// the timing wrapper must not drop or repeat items on either path.
func TestForEachNCoversEveryItem(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [100]int32
		var o sumObserver
		if err := ForEachNCtx(context.Background(), workers, len(hits), &o, func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}
		if o.n != len(hits) {
			t.Fatalf("workers=%d: observed %d items, want %d", workers, o.n, len(hits))
		}
	}
}

func TestForEachNCtxCancellationStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachNCtx(ctx, workers, 1000, nil, func(_ context.Context, i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight items finish, but dispatch stops: far fewer than 1000 run.
		if n := ran.Load(); n >= 1000 || n < 5 {
			t.Fatalf("workers=%d: %d items ran after cancellation at item 5", workers, n)
		}
	}
}

func TestForEachNCtxItemErrorWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := fmt.Errorf("boom")
	err := ForEachNCtx(ctx, 2, 50, nil, func(_ context.Context, i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the item error", err)
	}
}

// TestForEachNCtxObservesItems pins per-item timing: every item's
// duration lands on the observer, on the serial and the parallel path.
func TestForEachNCtxObservesItems(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var o sumObserver
		if err := ForEachNCtx(context.Background(), workers, 25, &o, func(context.Context, int) error {
			time.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if o.n != 25 {
			t.Fatalf("workers=%d: observed %d items, want 25", workers, o.n)
		}
		if o.total < 0.025 {
			t.Fatalf("workers=%d: total observed %.4fs, want >= 25ms", workers, o.total)
		}
	}
}

// TestForEachNTimedObservesEveryItem checks that failing items are timed
// too, and that after cancellation exactly the items that ran are observed.
func TestForEachNTimedObservesEveryItem(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var o sumObserver
		err := ForEachNCtx(context.Background(), workers, 25, &o, func(_ context.Context, i int) error {
			if i%5 == 0 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if o.n != 25 {
			t.Fatalf("workers=%d: observed %d items, want 25 (failing items included)", workers, o.n)
		}

		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		o = sumObserver{}
		err = ForEachNCtx(ctx, workers, 1000, &o, func(context.Context, int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if int32(o.n) != ran.Load() {
			t.Fatalf("workers=%d: observed %d items, %d ran", workers, o.n, ran.Load())
		}
	}
}
