package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestClamp(t *testing.T) {
	if got := Clamp(4); got != 4 {
		t.Errorf("Clamp(4) = %d", got)
	}
	if got := Clamp(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Clamp(0) = %d, want GOMAXPROCS", got)
	}
	if got := Clamp(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Clamp(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 8, 200} {
		got, err := Map(context.Background(), workers, items, func(_ context.Context, idx int, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 4, nil, func(_ context.Context, _ int, _ int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Errorf("Map(empty) = %v, %v", got, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	items := make([]int, 50)
	_, err := Map(context.Background(), workers, items, func(_ context.Context, _ int, _ int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	items := make([]int, 1000)
	_, err := Map(context.Background(), 2, items, func(_ context.Context, idx int, _ int) (int, error) {
		calls.Add(1)
		if idx == 3 {
			return 0, fmt.Errorf("item %d: %w", idx, boom)
		}
		if idx > 3 {
			// Slow the other worker down, so a loaded host that deschedules
			// the failing worker between its return and the stop signal
			// cannot let the feed run through every remaining item.
			time.Sleep(time.Millisecond)
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := calls.Load(); n == 1000 {
		t.Error("error did not stop the feed")
	}
}

func TestMapSequentialErrorStopsInOrder(t *testing.T) {
	var calls int
	items := []int{0, 1, 2, 3}
	_, err := Map(context.Background(), 1, items, func(_ context.Context, idx int, _ int) (int, error) {
		calls++
		if idx == 1 {
			return 0, errors.New("stop")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (inline mode stops at the failed item)", calls)
	}
}

func TestMapCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, workers, []int{1, 2, 3}, func(_ context.Context, _ int, _ int) (int, error) {
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestMapCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	items := make([]int, 1000)
	_, err := Map(ctx, 2, items, func(ctx context.Context, idx int, _ int) (int, error) {
		if calls.Add(1) == 5 {
			cancel()
		}
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n == 1000 {
		t.Error("cancellation did not stop the feed")
	}
}
