package fanout

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid is the running goroutine's id, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

func TestEveryWidthFillsTheSameSlots(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{-1, 0, 1, 2, n, n + 5} {
			got := make([]int, n)
			var calls atomic.Int64
			err := Each(context.Background(), n, workers, func(i int) error {
				calls.Add(1)
				got[i] = i*i + 1
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i*i + 1
			}
			if !reflect.DeepEqual(got, want) || int(calls.Load()) != n {
				t.Fatalf("n=%d workers=%d: slots %v after %d calls, want %v after %d", n, workers, got, calls.Load(), want, n)
			}
		}
	}
}

func TestNarrowRunsInOrderOnTheCaller(t *testing.T) {
	caller := goid()
	var order []int
	err := Each(context.Background(), 5, 1, func(i int) error {
		if id := goid(); id != caller {
			t.Errorf("item %d ran on goroutine %s, caller is %s", i, id, caller)
		}
		order = append(order, i)
		return nil
	})
	if err != nil || !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("visited %v, err %v", order, err)
	}
}

// TestNonPositiveWidthIsOnePerCPU pins the module's one width rule where it
// is written: every item waits until GOMAXPROCS of them are running at once
// (a narrower pool never gets there) and none may see more (a wider one
// would).
func TestNonPositiveWidthIsOnePerCPU(t *testing.T) {
	const cpus = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	for _, workers := range []int{0, -1, -7} {
		var running, peak atomic.Int64
		full := make(chan struct{})
		var once sync.Once
		err := Each(context.Background(), 2*cpus, workers, func(i int) error {
			now := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			if now == cpus {
				once.Do(func() { close(full) })
			}
			select {
			case <-full:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("item %d: never saw %d items running at once", i, cpus)
			}
		})
		if err != nil || peak.Load() != cpus {
			t.Fatalf("workers=%d: peak concurrency %d, want GOMAXPROCS=%d (err %v)", workers, peak.Load(), cpus, err)
		}
	}
}

func TestLowestFailingIndexWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	highDone := make(chan struct{})
	err := Each(context.Background(), 3, 3, func(i int) error {
		switch i {
		case 0: // fails last
			<-highDone
			return errLow
		case 2:
			defer close(highDone)
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want the lower index's error", err)
	}
	if err := Each(context.Background(), 3, 1, func(i int) error { return fmt.Errorf("item %d", i) }); err == nil || err.Error() != "item 0" {
		t.Fatalf("sequential: got %v, want item 0's error", err)
	}
}

func TestCancelStopsClaimsAndLetsRunningItemsFinish(t *testing.T) {
	// Wide: items 0 and 1 are both running when 0 cancels; 1 returns only
	// after it has seen the cancellation. Nothing else may start.
	for _, per := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		oneStarted := make(chan struct{})
		ran := make([]atomic.Bool, 6)
		errOne := errors.New("item 1 failed after the cancel")
		fn := func(i int) error {
			ran[i].Store(true)
			switch i {
			case 0:
				<-oneStarted
				cancel()
			case 1:
				close(oneStarted)
				<-ctx.Done()
				return errOne
			}
			return nil
		}
		if per {
			errs := Errors(ctx, len(ran), 2, fn)
			if want := []error{nil, errOne, nil, nil, nil, nil}; !reflect.DeepEqual(errs, want) {
				t.Fatalf("per-index errors %v, want %v", errs, want)
			}
		} else if err := Each(ctx, len(ran), 2, fn); err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled ahead of item 1's own error", err)
		}
		for i := range ran {
			if ran[i].Load() != (i < 2) {
				t.Fatalf("per=%v: item %d ran=%v", per, i, ran[i].Load())
			}
		}
	}

	// Narrow: item 2 cancels, 3 and 4 never start.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited []int
	err := Each(ctx, 5, 1, func(i int) error {
		visited = append(visited, i)
		if i == 2 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled || !reflect.DeepEqual(visited, []int{0, 1, 2}) {
		t.Fatalf("sequential: visited %v, err %v", visited, err)
	}
}

func TestPanicBecomesThatIndexsError(t *testing.T) {
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	for _, workers := range []int{1, 3} {
		logged.Reset()
		done := make([]bool, 5)
		errs := Errors(context.Background(), len(done), workers, func(i int) error {
			if i == 2 {
				var s []int
				_ = s[i] // index out of range
			}
			done[i] = true
			return nil
		})
		var p *Panic
		if !errors.As(errs[2], &p) || p.Index != 2 || !strings.Contains(p.Error(), "index out of range") {
			t.Fatalf("workers=%d: item 2's error is %v, want a *Panic carrying the runtime error", workers, errs[2])
		}
		for i, ok := range done {
			if ok == (i == 2) || (i != 2 && errs[i] != nil) {
				t.Fatalf("workers=%d: item %d done=%v err=%v", workers, i, ok, errs[i])
			}
		}
		if got := strings.Count(logged.String(), "fanout: item 2 panicked"); got != 1 {
			t.Fatalf("workers=%d: panic logged %d times, want once with its stack:\n%s", workers, got, logged.String())
		}
		if err := Each(context.Background(), len(done), workers, func(i int) error {
			if i >= 2 {
				panic(i)
			}
			return nil
		}); !errors.As(err, &p) || p.Index != 2 || p.Value != 2 {
			t.Fatalf("workers=%d: Each returned %v, want item 2's *Panic", workers, err)
		}
	}
}
