package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// One environment and one run of each experiment per test binary.
var (
	tablesMu sync.Mutex
	env      *Env
	tables   = map[string]*Table{} // experiment id -> its table at DefaultSeed
)

func TestAllIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, ex := range All() {
		if ex.ID == "" || seen[ex.ID] {
			t.Fatalf("bad or duplicate id %q", ex.ID)
		}
		seen[ex.ID] = true
		got, err := ByID(ex.ID)
		if err != nil || got.Paper != ex.Paper {
			t.Fatalf("ByID(%q) broken", ex.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "b"}}
	tbl.AddRow("x", 0.5)
	tbl.AddRow(1, "y")
	tbl.Note("n=%d", 2)
	tbl.Claim("demo.ok", true, 2, "a < b")
	tbl.Claim("demo.off", false, 0.125, "b < %d", 3)
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "a", "0.500", "note: n=2",
		"claim [holds]: demo.ok: a < b = 2\n", "claim [DEVIATES]: demo.off: b < 3 = 0.125\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestLedgerAndSeedList checks the multi-seed ledger and the seed-list
// parser on hand-built tables: nothing builds a framework.
func TestLedgerAndSeedList(t *testing.T) {
	claim := func(id string, holds bool, v float64) *Table {
		tbl := &Table{}
		tbl.Claim(id, holds, v, "x > %d", 0)
		return tbl
	}
	var l Ledger
	for i, seed := range []uint64{1, 2, 42} {
		for _, tbl := range []*Table{claim("a", seed != 2, []float64{1, -2, 4}[i]), claim("b", true, 0.5)} {
			if err := l.Add(seed, tbl); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := l.Table()
	want := [][]string{
		{"a", "x > 0", "1", "-2–4", "2/3", "2"},
		{"b", "x > 0", "0.5", "0.5–0.5", "3/3", "-"},
	}
	if !reflect.DeepEqual(got.Rows, want) || got.Title != "Claim ledger — 3 seeds: 1,2,42" {
		t.Fatalf("ledger %q: %q", got.Title, got.Rows)
	}
	if err := l.Add(42, claim("a", true, 0)); err == nil {
		t.Fatal("a claim id reported twice at one seed was accepted")
	}
	other := &Table{}
	other.Claim("b", true, 0, "other text")
	if err := l.Add(43, other); err == nil {
		t.Fatal("a claim whose text changed between seeds was accepted")
	}

	seeds, err := ParseSeeds("1-10,42")
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42}; err != nil || !slices.Equal(seeds, want) {
		t.Fatalf("ParseSeeds(1-10,42) = %v, %v", seeds, err)
	}
	if seeds, err := ParseSeeds(" 7 "); err != nil || !slices.Equal(seeds, []uint64{7}) {
		t.Fatalf("ParseSeeds(7) = %v, %v", seeds, err)
	}
	for _, bad := range []string{"", "3,3", "2-4,4", "10-1", "x", "1-", ","} {
		if seeds, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) = %v, want an error", bad, seeds)
		}
	}
}

// runExperiment returns one experiment's table at DefaultSeed, run once
// per test binary, after generic sanity checks.
func runExperiment(t *testing.T, id string) *Table {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment runs full frameworks; skipped in -short")
	}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if tbl, ok := tables[id]; ok {
		return tbl
	}
	ex, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if env == nil {
		env = NewEnv(DefaultSeed)
	}
	tbl, err := ex.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Title == "" || len(tbl.Rows) == 0 {
		t.Fatalf("experiment %s produced empty table", id)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("experiment %s row width %d != header %d", id, len(row), len(tbl.Header))
		}
	}
	tables[id] = tbl
	return tbl
}

// requireClaim fails unless the table carries claim id and it holds.
func requireClaim(t *testing.T, tbl *Table, id string) {
	t.Helper()
	for _, c := range tbl.Claims {
		if c.ID == id {
			if !c.Holds {
				t.Fatalf("claim %s deviates: %s = %v", id, c.Text, c.Value)
			}
			return
		}
	}
	t.Fatalf("%s carries no claim %s", tbl.Title, id)
}

// TestClaimsAtDefaultSeed pins the verdicts at DefaultSeed: every claim
// holds but two. ablTrend's is MultiRC: the trend prune's first step drops
// the model the halving backstop alone goes on to select (tab4's 0% column
// is the same FineSelect call, and its 5% column selects that model too).
// tab4's is X-Ray: at 5% a model reaches the last prune that out-validates
// the 0% winner there and tests 0.09 lower.
func TestClaimsAtDefaultSeed(t *testing.T) {
	var l Ledger
	var deviating []string
	for _, ex := range All() {
		tbl := runExperiment(t, ex.ID)
		if err := l.Add(DefaultSeed, tbl); err != nil {
			t.Fatal(err)
		}
		for _, c := range tbl.Claims {
			if !c.Holds {
				deviating = append(deviating, c.ID)
			}
		}
	}
	if want := []string{"tab4.accuracy-monotone", "ablTrend.saves-epochs"}; !slices.Equal(deviating, want) {
		t.Fatalf("claims deviating at seed %d: %v, want %v", DefaultSeed, deviating, want)
	}
}

func TestFig1Shape(t *testing.T) {
	tbl := runExperiment(t, "fig1")
	// 40 NLP + 30 CV rows
	if len(tbl.Rows) != 70 {
		t.Fatalf("fig1 rows %d", len(tbl.Rows))
	}
}

func TestTable1PerformanceBeatsText(t *testing.T) {
	tbl := runExperiment(t, "tab1")
	if len(tbl.Rows) != 4 {
		t.Fatalf("tab1 rows %d", len(tbl.Rows))
	}
	requireClaim(t, tbl, "tab1.perf-beats-text")
}

func TestTable2Clusters(t *testing.T) {
	tbl := runExperiment(t, "tab2")
	if len(tbl.Rows) < 6 {
		t.Fatalf("tab2 found only %d non-singleton clusters", len(tbl.Rows))
	}
}

func TestTable3NonSingletonStronger(t *testing.T) {
	tbl := runExperiment(t, "tab3")
	if len(tbl.Rows) != 4 {
		t.Fatalf("tab3 rows %d", len(tbl.Rows))
	}
	requireClaim(t, tbl, "tab3.non-singleton-stronger")
}

func TestFig5CoarseBeatsRandomOverall(t *testing.T) {
	requireClaim(t, runExperiment(t, "fig5"), "fig5.coarse-beats-random")
}

func TestTable5FSFasterThanSH(t *testing.T) {
	requireClaim(t, runExperiment(t, "tab5"), "tab5.order")
}

func TestTable6SpeedupsPositive(t *testing.T) {
	tbl := runExperiment(t, "tab6")
	if len(tbl.Rows) != 8 {
		t.Fatalf("tab6 rows %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		var epochs float64
		if _, err := fmt.Sscan(row[1], &epochs); err != nil {
			t.Fatal(err)
		}
		if epochs <= 0 || epochs > 60 {
			t.Fatalf("2PH epochs %v implausible", epochs)
		}
		if !strings.HasSuffix(row[2], "x") || !strings.HasSuffix(row[3], "x") {
			t.Fatalf("speedups malformed: %v", row)
		}
	}
}

func TestTable7RanksValid(t *testing.T) {
	tbl := runExperiment(t, "tab7")
	for _, row := range tbl.Rows {
		var rank int
		if _, err := fmt.Sscan(row[3], &rank); err != nil {
			t.Fatal(err)
		}
		if rank < 0 || rank >= 10 {
			t.Fatalf("R@CR %d outside recalled set", rank)
		}
	}
}

func TestTable4ThresholdRows(t *testing.T) {
	tbl := runExperiment(t, "tab4")
	if len(tbl.Rows) != 8 { // 4 datasets x {accuracy, runtime}
		t.Fatalf("tab4 rows %d", len(tbl.Rows))
	}
}

func TestTableXRows(t *testing.T) {
	tbl := runExperiment(t, "tabX")
	if len(tbl.Rows) != 6 {
		t.Fatalf("tabX rows %d", len(tbl.Rows))
	}
}

func TestFigExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig6", "fig7", "fig8"} {
		id := id
		t.Run(id, func(t *testing.T) { runExperiment(t, id) })
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{"ablTopK", "ablRep", "ablTrend", "ablProxy"} {
		id := id
		t.Run(id, func(t *testing.T) { runExperiment(t, id) })
	}
}

func TestExtensionEnsembleLifts(t *testing.T) {
	tbl := runExperiment(t, "extEnsemble")
	if len(tbl.Rows) != 8 {
		t.Fatalf("extEnsemble rows %d", len(tbl.Rows))
	}
	requireClaim(t, tbl, "extEnsemble.lifts")
}

func TestExtensionLSQAgreement(t *testing.T) {
	tbl := runExperiment(t, "extLSQ")
	if len(tbl.Rows) != 8 {
		t.Fatalf("extLSQ rows %d", len(tbl.Rows))
	}
	requireClaim(t, tbl, "extLSQ.cost")
	// One agreement note per task family.
	if len(tbl.Notes) != 2 {
		t.Fatalf("extLSQ notes %d: %q", len(tbl.Notes), tbl.Notes)
	}
	for _, note := range tbl.Notes {
		if !strings.Contains(note, "winner agreement vs two-phase") {
			t.Fatalf("agreement note missing: %q", note)
		}
	}
}

func TestAblationSubsetRows(t *testing.T) {
	tbl := runExperiment(t, "ablSubset")
	if len(tbl.Rows) != 6 {
		t.Fatalf("ablSubset rows %d", len(tbl.Rows))
	}
	// full-data rows must have ARI exactly 1
	for _, row := range tbl.Rows {
		var frac, ari float64
		if _, err := fmt.Sscan(row[1], &frac); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscan(row[2], &ari); err != nil {
			t.Fatal(err)
		}
		if frac == 1 && ari != 1 {
			t.Fatalf("full-data ARI %v != 1", ari)
		}
		if ari < -0.5 || ari > 1 {
			t.Fatalf("ARI %v out of range", ari)
		}
	}
}
