package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"twophase/internal/numeric"
)

// Ledger collects every claim's verdict across world seeds: one row per
// claim id, in the order the ids first appear.
type Ledger struct {
	seeds []string
	order []string
	rows  map[string]*ledgerRow
}

type ledgerRow struct {
	text    string
	seeds   []uint64
	values  []float64
	deviate []string
}

// Add records the claims of one experiment's table run at seed. A claim
// id reported twice at one seed, or with other text than at an earlier
// seed, is an error: the row would mix two claims.
func (l *Ledger) Add(seed uint64, t *Table) error {
	if l.rows == nil {
		l.rows = map[string]*ledgerRow{}
	}
	if s := strconv.FormatUint(seed, 10); !slices.Contains(l.seeds, s) {
		l.seeds = append(l.seeds, s)
	}
	for _, c := range t.Claims {
		r := l.rows[c.ID]
		if r == nil {
			r = &ledgerRow{text: c.Text}
			l.rows[c.ID] = r
			l.order = append(l.order, c.ID)
		}
		if slices.Contains(r.seeds, seed) || r.text != c.Text {
			return fmt.Errorf("experiments: claim %s at seed %d (%q) repeats a claim or changes its text (%q)", c.ID, seed, c.Text, r.text)
		}
		r.seeds = append(r.seeds, seed)
		r.values = append(r.values, c.Value)
		if !c.Holds {
			r.deviate = append(r.deviate, strconv.FormatUint(seed, 10))
		}
	}
	return nil
}

// Table renders the ledger: per claim its text, the value's mean and
// min–max over the seeds, how many seeds it holds at and the seeds where
// it deviates.
func (l *Ledger) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Claim ledger — %d seeds: %s", len(l.seeds), strings.Join(l.seeds, ",")),
		Header: []string{"claim", "text", "mean", "min–max", "holds", "deviates at"},
	}
	for _, id := range l.order {
		r := l.rows[id]
		deviate := strings.Join(r.deviate, ",")
		if deviate == "" {
			deviate = "-"
		}
		t.AddRow(id, r.text, num(numeric.Mean(r.values)),
			num(numeric.Min(r.values))+"–"+num(numeric.Max(r.values)),
			fmt.Sprintf("%d/%d", len(r.values)-len(r.deviate), len(r.values)), deviate)
	}
	return t
}

// ParseSeeds reads a seed list: comma-separated seeds and inclusive
// ascending ranges, "1-10,42". Order is kept; an empty list, a reversed
// range and a seed listed twice are errors.
func ParseSeeds(s string) ([]uint64, error) {
	var seeds []uint64
	seen := map[uint64]bool{}
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		if !isRange {
			hi = lo
		}
		first, errLo := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		last, errHi := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
		if errLo != nil || errHi != nil || last < first {
			return nil, fmt.Errorf("experiments: bad seed or seed range %q in %q", part, s)
		}
		for seed := first; ; seed++ {
			if seen[seed] {
				return nil, fmt.Errorf("experiments: seed %d listed twice in %q", seed, s)
			}
			seen[seed] = true
			seeds = append(seeds, seed)
			if seed == last {
				break
			}
		}
	}
	return seeds, nil
}
