package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"twophase/internal/api"
	"twophase/internal/datahub"
	"twophase/internal/lifecycle"
)

// testSizes are the split sizes every CI smoke in the repository uses.
var testSizes = datahub.Sizes{Train: 60, Val: 40, Test: 48}

// Fixed loopback ports. The ring hashes backend URLs, so random ports would
// move world ownership between processes; these sit below the ephemeral
// range, so no outgoing connection of the run itself can take them.
const (
	gatewayPort  = 18431
	backendPort0 = 18432
	backendPort1 = 18433
	// serviceSeed is the fleet's configured base seed; every generated
	// request names its world's seed explicitly.
	serviceSeed = 42
	// nonceBase keeps the per-request epoch cap far above any real cost: it
	// never binds, it only makes request bodies distinct.
	nonceBase = 1_000_000
)

// World seeds are fixed so that the counts a run reports (epochs, regret,
// recalled) depend on the commit and not on -seed, and so that on the ring
// over the two fixed backend URLs each backend is primary owner of one nlp
// and one cv world per seed pair: seeds 1 and 3 land on backend 0, seeds 5
// and 8 on backend 1. A guard checks the split at set-up.
var (
	fourWorlds  = worlds(1, 5)
	eightWorlds = worlds(1, 3, 5, 8)
)

func worlds(seeds ...uint64) []lifecycle.Key {
	var out []lifecycle.Key
	for _, s := range seeds {
		out = append(out, lifecycle.Key{Task: datahub.TaskNLP, Seed: s}, lifecycle.Key{Task: datahub.TaskCV, Seed: s})
	}
	return out
}

// workload is one fixed traffic mix. Name and Why go into BENCHMARK.json.
type workload struct {
	Name string
	Why  string
	// Clients is the closed-loop client count (capped at GOMAXPROCS).
	Clients int
	Sizes   datahub.Sizes
	Worlds  []lifecycle.Key
	// CacheSize is each backend's resident-world bound (0 = unbounded).
	CacheSize int
	// Shape selects the lap generator.
	Shape shape
	// Local keeps a workload out of BENCHMARK.json: it runs by name and in
	// the all-workloads mode, but not under the driver, whose time limit has
	// room for three workloads at a run length that reads steady.
	Local bool
	// TraceLaps is how many times the traced pass walks each ladder rung
	// over one ladder lap.
	TraceLaps int
	// LadderCap, when positive, marks the smoke-test form of a workload: the
	// ladder lap is cut to its first requests and the component timings run
	// at test size, because every rung and timing has to run, not to measure.
	LadderCap int
}

type shape int

const (
	// shapeBatch: one request per world carrying its whole target catalog.
	shapeBatch shape = iota
	// shapeSweep: one single-target request per (world, target), worlds
	// rotating so that consecutive requests never name the same world.
	shapeSweep
	// shapeRepeat: the first two catalog targets of each world at
	// max_epochs 0: eight distinct bodies, byte-identical from lap to lap.
	shapeRepeat
)

var workloads = []workload{
	{
		Name:    "batch_hot",
		Why:     "whole-catalog batches split over both owners keep features cached: recall, proxy and training do the work, scatter/gather on top",
		Clients: 2, Worlds: fourWorlds, Shape: shapeBatch, TraceLaps: 16,
	},
	{
		Name:    "sweep_single",
		Why:     "single targets rotating over every (world, target): 12 splits per model overflow its 8-entry feature cache, extraction dominates",
		Clients: 2, Worlds: fourWorlds, Shape: shapeSweep, TraceLaps: 8,
	},
	{
		Name:    "cheap_repeat",
		Why:     "eight byte-identical max_epochs:0 requests on test-size worlds: least compute, so routing, admission, HTTP and JSON weigh most",
		Clients: 2, Sizes: testSizes, Worlds: fourWorlds, Shape: shapeRepeat, TraceLaps: 16,
	},
	{
		Name:    "cold_restore",
		Why:     "cache size 1 over eight stored worlds: every request restores its world from the store, then selects on cold feature caches",
		Clients: 1, Worlds: eightWorlds, CacheSize: 1, Shape: shapeSweep, TraceLaps: 2,
		// Eight worlds to build, three times over, make its set-ups alone as
		// long as a whole run of the others.
		Local: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// short shrinks a workload to test-size worlds and a brief traced pass, for
// the smoke test that keeps the benchmark from rotting.
func (w workload) short() workload {
	w.Sizes = testSizes
	w.TraceLaps = 1
	w.LadderCap = 12
	return w
}

// cold reports whether every request must restore its world: with room for
// one resident world and requests rotating worlds, none can hit the cache.
func (w workload) cold() bool { return w.CacheSize == 1 }

func (w workload) clients() int {
	return min(w.Clients, runtime.GOMAXPROCS(0))
}

// targetNames lists a task family's target datasets in catalog order,
// without materializing a world.
func targetNames(task string) []string {
	specs := datahub.NLPTargets()
	if task == datahub.TaskCV {
		specs = datahub.CVTargets()
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// planned is one request of a lap before it gets its per-request nonce.
type planned struct {
	World   lifecycle.Key
	Targets []string
}

// plan is a workload's request cycle under one -seed: the measured lap, and
// the single-target lap the traced pass walks the ladder with. The seed
// permutes world and target order; which (world, target) pairs a lap holds
// is fixed by the workload.
type plan struct {
	w      workload
	seed   uint64
	Lap    []planned
	Ladder []planned
}

func newPlan(w workload, seed uint64) *plan {
	// math/rand, not the program's own generator: a change to the program
	// must not be able to change the workload.
	rng := rand.New(rand.NewSource(int64(seed)))
	worldOrder := make([]lifecycle.Key, len(w.Worlds))
	for i, j := range rng.Perm(len(w.Worlds)) {
		worldOrder[i] = w.Worlds[j]
	}
	targetOrder := make(map[lifecycle.Key][]string, len(worldOrder))
	for _, k := range w.Worlds { // catalog order of worlds, so the draw sequence is fixed
		names := targetNames(k.Task)
		if w.Shape == shapeRepeat {
			names = names[:2]
		}
		perm := make([]string, len(names))
		for i, j := range rng.Perm(len(names)) {
			perm[i] = names[j]
		}
		targetOrder[k] = perm
	}
	// One round visits every world in the seed's order and then the nlp
	// worlds a second time. The two families' requests differ in cost by up
	// to 2x, so an even mix would put the median request on the cliff
	// between two latency modes, where it measures the mix and not the
	// system; at 2:1 the median and the p90 both fall inside a mode. The
	// order also never names a world twice in a row, per backend too, as
	// long as each backend owns two nlp worlds or none of the cache matters.
	round := append([]lifecycle.Key(nil), worldOrder...)
	for _, k := range worldOrder {
		if k.Task == datahub.TaskNLP {
			round = append(round, k)
		}
	}
	// singles walks len(slots) rounds, each visit taking its world's next
	// target among slots: cv worlds cycle through them once a lap, nlp
	// worlds twice, always in the same cyclic order.
	singles := func(slots []int) []planned {
		var out []planned
		visit := make(map[lifecycle.Key]int)
		for range slots {
			for _, k := range round {
				slot := slots[visit[k]%len(slots)]
				visit[k]++
				out = append(out, planned{World: k, Targets: []string{targetOrder[k][slot]}})
			}
		}
		return out
	}
	p := &plan{w: w, seed: seed}
	switch w.Shape {
	case shapeBatch:
		for _, k := range round {
			p.Lap = append(p.Lap, planned{World: k, Targets: targetOrder[k]})
		}
		// The router hands a batch's even positions to the world's primary
		// owner. A single-target request also goes to the primary, so the
		// ladder walks exactly the targets whose features the batches keep
		// cached there: a warm single select.
		p.Ladder = singles([]int{0, 2})
	case shapeRepeat:
		p.Lap = singles([]int{0, 1})
		p.Ladder = p.Lap
	default:
		p.Lap = singles([]int{0, 1, 2, 3})
		p.Ladder = p.Lap
	}
	if w.LadderCap > 0 {
		p.Ladder = p.Ladder[:min(w.LadderCap, len(p.Ladder))]
	}
	return p
}

// request materializes one planned request as the k-th the run sends.
// Except on the repeat shape, k becomes a distinct non-binding max_epochs,
// so no two requests of a run are byte-identical while the work and the
// answer equal the unbudgeted request's: those workloads measure computing
// an answer, and a request memo must not be able to turn them into lookups.
func (p *plan) request(pl planned, k int) *api.SelectRequest {
	seed := pl.World.Seed
	req := &api.SelectRequest{Task: pl.World.Task, Targets: pl.Targets}
	req.Seed = &seed
	cap := 0
	if p.w.Shape != shapeRepeat {
		cap = nonceBase + int(p.seed%1000)*100_000 + k
	}
	req.MaxEpochs = &cap
	return req
}
