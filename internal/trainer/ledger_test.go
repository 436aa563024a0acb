package trainer

import (
	"sync"
	"testing"
)

func TestSharedLedgerConcurrent(t *testing.T) {
	var s SharedLedger
	const goroutines = 16
	const perG = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Add(Ledger{trainEpochs: 1, inferenceHalves: 2})
				s.Add(Ledger{trainEpochs: 1})
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if got, want := snap.TrainEpochs(), 2*goroutines*perG; got != want {
		t.Fatalf("train epochs %d, want %d", got, want)
	}
	wantTotal := float64(2*goroutines*perG) + 0.5*float64(2*goroutines*perG)
	if got := snap.Total(); got != wantTotal {
		t.Fatalf("total %v, want %v", got, wantTotal)
	}
}

func TestSharedLedgerSnapshotIsCopy(t *testing.T) {
	var s SharedLedger
	s.Add(Ledger{trainEpochs: 3})
	snap := s.Snapshot()
	snap.ChargeEpochs(10)
	if again := s.Snapshot(); again.Total() != 3 {
		t.Fatalf("mutating a snapshot changed the shared ledger: %v", again.Total())
	}
}
