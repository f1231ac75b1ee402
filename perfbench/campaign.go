package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// campaignSpec is one campaign workload: its scale and its cells.
// figures marks the full small-scale figure campaign, whose figure
// tables can be rendered from the memo without computing a cell.
type campaignSpec struct {
	scale   experiments.Scale
	keys    []experiments.Key
	figures bool
}

func campaignWorkload(name string) campaignSpec {
	if name == wlWide {
		return campaignSpec{scale: experiments.DefaultScale(), keys: wideKeys()}
	}
	return campaignSpec{scale: experiments.SmallScale(), keys: figuresKeys(), figures: true}
}

// campaignPass is one timed run of a campaign workload.
type campaignPass struct {
	total    time.Duration   // first cell submitted to last cell finished
	done     []time.Duration // completion offset of each cell
	outcomes []experiments.Outcome
	hits     []float64 // figure tables answered from the memo, ms
}

// runCampaignPass submits every cell of spec to a fresh campaign with
// the given worker count through Campaign.RunKeys, recording when each
// cell lands (through the campaign's Log hook), then renders figure
// tables from the campaign's memo.
func runCampaignPass(spec campaignSpec, workers int, seed uint64) campaignPass {
	camp := experiments.NewCampaign(spec.scale)
	camp.Workers = workers
	var p campaignPass
	var mu sync.Mutex
	start := time.Now()
	camp.Log = func(string) {
		d := time.Since(start)
		mu.Lock()
		p.done = append(p.done, d)
		mu.Unlock()
	}
	camp.RunKeys(spec.keys)
	p.total = time.Since(start)
	for _, k := range spec.keys {
		p.outcomes = append(p.outcomes, camp.Run(k))
	}
	p.hits = probeTables(camp, spec, seed)
	return p
}

// tableProbe is how long a pass renders figure tables from the memo (at
// least minTableSamples of them): long enough that the 99th percentile
// rests on dozens of samples whatever a table costs.
const (
	tableProbe      = 250 * time.Millisecond
	minTableSamples = 1000
	gcEvery         = 64
)

// probeTables times figure tables answered from the campaign's memo, in
// a seeded order: the path slbench takes after its campaign, and the
// in-memory tier slserve's "memory" source reads. figures-small renders
// the paper's 12 figures through Campaign.FigureTable, a sample per
// figure; other cell sets render their cells under each of the four
// figure metrics through Campaign.Run and metrics.Table, a sample per
// set of four. Samples are in milliseconds. A user renders a figure set
// once, allocating too little to start a garbage collection; the probe
// renders thousands, so it turns the collector's pacing off and collects
// the heap itself, untimed, every gcEvery tables, followed by an untimed
// table that brings the caches the collection evicted back in. That
// keeps collector cycles out of the samples as they are out of a single
// rendering.
func probeTables(camp *experiments.Campaign, spec campaignSpec, seed uint64) []float64 {
	var tables []func()
	if spec.figures {
		for _, fig := range experiments.Figures() {
			tables = append(tables, func() { camp.FigureTable(fig) })
		}
	} else {
		// Eight rows make a table of a few microseconds, where timer
		// interrupts would set the tail; one sample renders the set.
		tables = append(tables, func() {
			for _, col := range []string{"wall", "io", "comm", "efficiency"} {
				rows := make([]metrics.TableRow, 0, len(spec.keys))
				for _, k := range spec.keys {
					out := camp.Run(k)
					rows = append(rows, metrics.TableRow{Label: out.Key.Label(), Summary: out.Summary, Err: out.Err})
				}
				metrics.Table(rows, []string{col})
			}
		})
	}
	rng := newRNG(seed, 0, 3)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var samples []float64
	for end := time.Now().Add(tableProbe); len(samples) < minTableSamples || time.Now().Before(end); {
		table := tables[rng.IntN(len(tables))]
		if len(samples)%gcEvery == 0 {
			runtime.GC()
			table()
		}
		t0 := time.Now()
		table()
		samples = append(samples, ms(time.Since(t0)))
	}
	return samples
}

// buildProblems constructs every problem the workload's cells share —
// the set-up a campaign does before its first cell runs.
func buildProblems(sc experiments.Scale, keys []experiments.Key) error {
	type pk struct {
		ds       experiments.Dataset
		seeding  experiments.Seeding
		unsteady bool
		inj      experiments.Injection
	}
	seen := map[pk]bool{}
	for _, k := range keys {
		p := pk{k.Dataset, k.Seeding, k.Unsteady, k.Injection}
		if seen[p] {
			continue
		}
		seen[p] = true
		if _, err := experiments.BuildInjectedProblem(k.Dataset, k.Seeding, sc, k.Unsteady, k.Injection); err != nil {
			return err
		}
	}
	return nil
}

// serialCells times Campaign.Run one cell at a time on a fresh
// campaign, returning each cell's host milliseconds.
func serialCells(sc experiments.Scale, keys []experiments.Key) []float64 {
	camp := experiments.NewCampaign(sc)
	camp.Workers = 1
	out := make([]float64, len(keys))
	for i, k := range keys {
		t0 := time.Now()
		camp.Run(k)
		out[i] = ms(time.Since(t0))
	}
	return out
}
