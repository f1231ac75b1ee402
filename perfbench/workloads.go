package main

import (
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prefetch"
)

// Workload names, as passed to --workload.
const (
	wlFigures = "figures-small"
	wlWide    = "wide-sparse"
	wlServe   = "serve-mixed"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{wlFigures, wlWide, wlServe}

// figuresKeys returns the 72 steady cells of the small-scale figure
// campaign in presentation order: the cells `slbench -scale small` runs.
func figuresKeys() []experiments.Key {
	return experiments.NewCampaign(experiments.SmallScale()).AllKeys()
}

// wideProcs spans the paper's own processor range.
var wideProcs = []int{64, 128, 256, 512}

// wideKeys returns the default-scale thermal sparse cells under the two
// dynamically balanced algorithms at 64–512 processors.
func wideKeys() []experiments.Key {
	var keys []experiments.Key
	for _, alg := range []core.Algorithm{core.HybridMS, core.WorkStealing} {
		for _, p := range wideProcs {
			keys = append(keys, experiments.Key{Dataset: experiments.Thermal, Seeding: experiments.Sparse, Alg: alg, Procs: p})
		}
	}
	return keys
}

// The serve-mixed key universe: every campaign axis, each between its
// zero value and one enabled value (prefetch, injection, faults), at the
// small scale's processor counts. refs.txt holds a reference digest for
// every cell of it, observed and unobserved.
var (
	uniProcs     = []int{8, 16, 32}
	uniUnsteady  = []bool{false, true}
	uniPrefetch  = []prefetch.Policy{"", prefetch.Both}
	uniInjection = []experiments.Injection{experiments.InjectT0, experiments.InjectStagger}
	uniFaults    = []experiments.FaultMode{experiments.FaultsOff, experiments.FaultsKill}
)

// universe enumerates every key the serve-mixed population can draw.
func universe() []experiments.Key {
	var keys []experiments.Key
	for _, ds := range experiments.Datasets() {
		for _, se := range experiments.Seedings() {
			for _, alg := range core.Algorithms() {
				for _, p := range uniProcs {
					for _, u := range uniUnsteady {
						for _, pf := range uniPrefetch {
							for _, inj := range uniInjection {
								for _, f := range uniFaults {
									keys = append(keys, experiments.Key{Dataset: ds, Seeding: se, Alg: alg, Procs: p,
										Unsteady: u, Prefetch: pf, Injection: inj, Faults: f})
								}
							}
						}
					}
				}
			}
		}
	}
	return keys
}

// Serve-mixed traffic shape.
const (
	popSize      = 64  // distinct keys in one run's population
	zipfS        = 1.1 // interactive key popularity exponent
	observeEvery = 8   // one interactive request in observeEvery carries ?observe=1
	batchCells   = 8   // cells per bulk request
)

// request is one client request of serve-mixed: a single cell
// (interactive) or a batch (bulk).
type request struct {
	keys    []int // indexes into the population
	observe bool
}

// traffic is the generated serve-mixed input of one seed.
type traffic struct {
	pop         []experiments.Key
	interactive []request
	bulk        []request
}

// newRNG returns the benchmark's deterministic generator for a seed, a
// sub-population index and a stream tag.
func newRNG(seed uint64, sub int, tag uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(sub)<<8|tag))
}

// population draws popSize distinct keys from the universe. The draw is
// stratified: every axis value appears in an equal share of the first
// round's draws (up to rounding), and the seed decides how the axes
// combine. That keeps the population's cost mix alike across seeds
// while every seed still sees different cells. The rare duplicates of
// the first round are replaced by uniform draws.
func population(seed uint64, sub int) []experiments.Key {
	rng := newRNG(seed, sub, 1)
	// balanced returns popSize picks that cycle through m values, shuffled.
	balanced := func(m int) []int {
		idx := make([]int, popSize)
		for i := range idx {
			idx[i] = i % m
		}
		rng.Shuffle(popSize, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		return idx
	}
	ds, se, alg, pr := balanced(3), balanced(2), balanced(4), balanced(len(uniProcs))
	un, pf, inj, fl := balanced(2), balanced(2), balanced(2), balanced(2)
	var pop []experiments.Key
	seen := map[experiments.Key]bool{}
	add := func(k experiments.Key) {
		if !seen[k] {
			seen[k] = true
			pop = append(pop, k)
		}
	}
	for i := 0; i < popSize; i++ {
		add(experiments.Key{
			Dataset: experiments.Datasets()[ds[i]], Seeding: experiments.Seedings()[se[i]],
			Alg: core.Algorithms()[alg[i]], Procs: uniProcs[pr[i]],
			Unsteady: uniUnsteady[un[i]], Prefetch: uniPrefetch[pf[i]],
			Injection: uniInjection[inj[i]], Faults: uniFaults[fl[i]],
		})
	}
	uni := universe()
	for len(pop) < popSize {
		add(uni[rng.IntN(len(uni))])
	}
	return pop
}

// zipfSampler draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s.
type zipfSampler struct{ cdf []float64 }

func newZipf(n int, s float64) zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipfSampler{cdf: cdf}
}

func (z zipfSampler) draw(rng *rand.Rand) int {
	i, _ := slices.BinarySearch(z.cdf, rng.Float64())
	return min(i, len(z.cdf)-1)
}

// makeTraffic generates the serve-mixed input of one pass: pass sub of
// a run with the given seed draws its own population, nInteractive
// single-cell requests whose keys follow a Zipf law over a seeded
// popularity order, and nBulk batches of batchCells distinct keys drawn
// uniformly.
func makeTraffic(seed uint64, sub, nInteractive, nBulk int) traffic {
	tr := traffic{pop: population(seed, sub)}
	rng := newRNG(seed, sub, 2)
	rank := rng.Perm(len(tr.pop)) // rank -> population index
	z := newZipf(len(tr.pop), zipfS)
	for i := 0; i < nInteractive; i++ {
		tr.interactive = append(tr.interactive, request{
			keys:    []int{rank[z.draw(rng)]},
			observe: i%observeEvery == observeEvery-1,
		})
	}
	for i := 0; i < nBulk; i++ {
		tr.bulk = append(tr.bulk, request{keys: rng.Perm(len(tr.pop))[:batchCells]})
	}
	return tr
}
