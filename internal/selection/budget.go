package selection

import "time"

// Budget dimensions an anytime selection can exhaust. TruncatedBy carries
// one of these through Outcome so the serving tier can tell a client *why*
// it got a best-so-far winner.
const (
	// TruncatedByEpochs marks a selection stopped by Config.MaxEpochs.
	TruncatedByEpochs = "max_epochs"
	// TruncatedByDeadline marks a selection stopped by Config.Deadline.
	TruncatedByDeadline = "deadline"
)

// budgetStop reports whether the next training stage — costing stageCost
// more epochs on top of the spent train epochs — must not run under the
// config's budget, and which dimension stops it.
//
// The epoch cap is checked first: it is deterministic (pure ledger
// arithmetic), so a request that fixes MaxEpochs truncates at exactly the
// same stage on every serving path regardless of wall-clock jitter. The
// deadline check only decides for requests without an exhausted epoch cap.
func (c Config) budgetStop(spent, stageCost int) (string, bool) {
	if c.MaxEpochs != nil && spent+stageCost > *c.MaxEpochs {
		return TruncatedByEpochs, true
	}
	if !c.Deadline.IsZero() && !time.Now().Before(c.Deadline) {
		return TruncatedByDeadline, true
	}
	return "", false
}
