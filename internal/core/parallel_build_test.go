package core_test

// Parallel-build determinism suite: the BuildWorkers knob may only change
// wall-clock time, never a single output bit. Both tests compare against
// the recorded golden fixtures (the slice-of-slices ground truth), so a
// reduction reorder anywhere in the parallel perf-matrix, clustering or
// kernel paths fails against the same oracle as the serial path. The
// hammer test additionally runs builds concurrently and is the -race
// target of CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"twophase/internal/artifact"
	"twophase/internal/core"
	"twophase/internal/datahub"
)

// goldenTwoPhaseJSON builds a framework with the given worker budget and
// renders the two-phase selection report for the first target in the
// fixture JSON form (byte equality implies bit equality of every float),
// next to the encoded performance matrix: every curve the build trained,
// not only the ones that report read.
func goldenTwoPhaseJSON(t *testing.T, task string, seed uint64, workers int) (report, matrix []byte) {
	t.Helper()
	fw, err := core.Build(core.Options{Task: task, Seed: seed, Sizes: goldenSizes, BuildWorkers: workers})
	if err != nil {
		t.Fatalf("build %s/%d workers=%d: %v", task, seed, workers, err)
	}
	target := fw.Catalog.Targets()[0]
	rep, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategyTwoPhase})
	if err != nil {
		t.Fatalf("select %s/%d workers=%d: %v", task, seed, workers, err)
	}
	report, err = json.MarshalIndent(renderGolden(rep), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	matrix, err = artifact.EncodeMatrix(fw.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	return append(report, '\n'), matrix
}

// TestBuildWorkersBitIdentical pins serial and parallel offline builds to
// the recorded fixtures: BuildWorkers ∈ {1, 4, 0} — serial, a fixed width
// and the default every server runs, the whole CPU budget — must each
// reproduce the golden two-phase report byte for byte, and the serial
// build's whole matrix.
func TestBuildWorkersBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full frameworks")
	}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		var serial []byte
		for _, workers := range []int{1, 4, 0} {
			got, matrix := goldenTwoPhaseJSON(t, task, 7, workers)
			if serial == nil {
				serial = matrix
			} else if !bytes.Equal(matrix, serial) {
				t.Errorf("%s/7 workers=%d built a different matrix than the serial build", task, workers)
			}
			want, err := os.ReadFile(goldenPath(task, 7, core.StrategyTwoPhase))
			if err != nil {
				t.Fatalf("missing golden fixture (record with -update-golden on TestGoldenSelectReports): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s/7 workers=%d diverges from golden fixture\n%s",
					task, workers, firstDiff(string(want), string(got)))
			}
		}
	}
}

// TestConcurrentBuildsHammer runs several full offline builds at once,
// each with BuildWorkers > 1, so the shared feature cache and the
// perf-matrix fan-out contend — the -race workload of CI. Every
// concurrently built framework must still match the golden fixture
// exactly.
func TestConcurrentBuildsHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full frameworks")
	}
	want, err := os.ReadFile(goldenPath(datahub.TaskNLP, 7, core.StrategyTwoPhase))
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	const builds = 3
	reports := make([][]byte, builds)
	var wg sync.WaitGroup
	for i := 0; i < builds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fw, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 7, Sizes: goldenSizes, BuildWorkers: 4})
			if err != nil {
				t.Errorf("concurrent build %d: %v", i, err)
				return
			}
			report, err := fw.SelectWith(context.Background(), fw.Catalog.Targets()[0], core.SelectOptions{Strategy: core.StrategyTwoPhase})
			if err != nil {
				t.Errorf("concurrent select %d: %v", i, err)
				return
			}
			got, err := json.MarshalIndent(renderGolden(report), "", " ")
			if err != nil {
				t.Errorf("concurrent render %d: %v", i, err)
				return
			}
			reports[i] = append(got, '\n')
		}(i)
	}
	wg.Wait()
	for i, got := range reports {
		if got == nil {
			continue // already reported
		}
		if string(got) != string(want) {
			t.Errorf("concurrent build %d diverges from golden fixture\n%s", i, firstDiff(string(want), string(got)))
		}
	}
}
