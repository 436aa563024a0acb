package trainer

import (
	"fmt"
	"sync"
)

// Ledger accumulates the training-epoch cost of a selection procedure,
// the paper's runtime metric ("runtime is total training epoch number",
// Table V). Proxy-score inference is charged at half an epoch per scored
// model because it needs no backward pass (§V.D).
type Ledger struct {
	trainEpochs     int
	inferenceHalves int
}

// ChargeEpochs records n full training epochs.
func (l *Ledger) ChargeEpochs(n int) {
	if n < 0 {
		panic("trainer: negative epoch charge")
	}
	l.trainEpochs += n
}

// ChargeInference records proxy-score inference over n models
// (0.5 epoch each).
func (l *Ledger) ChargeInference(nModels int) {
	if nModels < 0 {
		panic("trainer: negative inference charge")
	}
	l.inferenceHalves += nModels
}

// TrainEpochs returns the pure fine-tuning cost.
func (l *Ledger) TrainEpochs() int { return l.trainEpochs }

// Total returns the combined cost in epochs, rounding the inference
// half-epochs up (matching the paper's 0.5*|MC| accounting).
func (l *Ledger) Total() float64 {
	return float64(l.trainEpochs) + float64(0.5*float64(l.inferenceHalves))
}

// Add merges another ledger into this one.
func (l *Ledger) Add(other Ledger) {
	l.trainEpochs += other.trainEpochs
	l.inferenceHalves += other.inferenceHalves
}

// String renders the ledger for logs.
func (l *Ledger) String() string {
	return fmt.Sprintf("%.1f epochs (%d train + %d proxy inferences)", l.Total(), l.trainEpochs, l.inferenceHalves)
}

// SharedLedger is a Ledger that many goroutines may add to concurrently —
// the serving layer's running total of finished requests' costs. The zero
// value is ready to use.
type SharedLedger struct {
	mu sync.Mutex
	l  Ledger
}

// Add merges a finished request's ledger into the shared total.
func (s *SharedLedger) Add(other Ledger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.l.Add(other)
}

// Snapshot returns a copy of the accumulated ledger.
func (s *SharedLedger) Snapshot() Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l
}
