package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"peak_rss_mb", "MB"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"cells_per_s", "1/s"},
}

// e2e is one set of end-to-end values. hitP99 is not an end-to-end
// metric: on a shared host the 99th percentile of sub-millisecond hits
// follows the host's scheduling noise rather than the program, so an
// untraced run only notes it and the traced run reports it per layer.
type e2e struct {
	setup, campaign, peak, hitP50, hitP90, coldP50, cellsPerS float64
	hitP99                                                    float64
}

func (v e2e) set(rep *report, prefix string) {
	vals := []float64{v.setup, v.campaign, v.peak, v.hitP50, v.hitP90, v.coldP50, v.cellsPerS}
	for i, m := range endToEnd {
		rep.set(prefix+m.name, m.unit, vals[i])
	}
	if prefix == "" {
		rep.note("hit_p99_ms %.6g (not an end-to-end metric)", v.hitP99)
	} else {
		rep.set(prefix+"hit_p99_ms", "ms", v.hitP99)
	}
}

// setupMinRep is the least time one set-up sample accumulates: a sample
// repeats the set-up until then and reports the mean of its repetitions,
// so microsecond-scale set-ups are not read off a single timer interval.
const setupMinRep = 10 * time.Millisecond

// timeSetup takes setupReps samples of fn, each accumulating at least
// setupMinRep of fn's own measured time, and returns the median
// per-call duration in seconds. One untimed call first takes the
// process's first-use costs out of the samples, and every sample starts
// from a freshly collected heap, so each pays the same share of the
// collections its own allocations cause.
func timeSetup(reps int, fn func() (time.Duration, error)) (float64, error) {
	if _, err := fn(); err != nil {
		return 0, err
	}
	var samples []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		var acc time.Duration
		n := 0
		for acc < setupMinRep {
			d, err := fn()
			if err != nil {
				return 0, err
			}
			acc += d
			n++
		}
		samples = append(samples, acc.Seconds()/float64(n))
	}
	return median(samples), nil
}

// timed adapts a set-up step to timeSetup.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
}

// enough reports whether another pass as long as last would overrun the
// run's measurement window.
func enough(o options, start time.Time, last time.Duration) bool {
	return time.Since(start)+last > time.Duration(o.seconds)*time.Second
}

// ---- campaign workloads ----

func runCampaign(o options, rep *report, chk *checker) error {
	spec := campaignWorkload(o.workload)
	setupFn := timed(func() error { return buildProblems(spec.scale, spec.keys) })
	rep.note("%s: %d cells at scale %s on %d workers", o.workload, len(spec.keys), spec.scale.Name, o.workers)
	if o.trace {
		return traceCampaign(o, spec, setupFn, rep, chk)
	}
	setup, err := timeSetup(setupReps, setupFn)
	if err != nil {
		return err
	}
	var passes []campaignPass
	var peaks []float64
	var first workCounts
	start := time.Now()
	for {
		resetPeakRSS()
		p := runCampaignPass(spec, o.workers, o.seed)
		peaks = append(peaks, peakRSSMB())
		wc := checkCampaignPass(spec, p, rep, chk)
		if len(passes) == 0 {
			first = wc
		} else if wc != first {
			rep.fail("simulated work counts differ between passes of one run")
		}
		passes = append(passes, p)
		if enough(o, start, p.total) {
			break
		}
	}
	campaignE2E(setup, passes, median(peaks)).set(rep, "")
	rep.note("%d passes; campaign_s per pass %v", len(passes), passTotals(passes))
	return nil
}

// checkCampaignPass checks every outcome against its reference and
// returns the pass's simulated work counts.
func checkCampaignPass(spec campaignSpec, p campaignPass, rep *report, chk *checker) workCounts {
	var sums []metrics.Summary
	oom := 0
	for i, out := range p.outcomes {
		rep.Attempted++
		sum, errText, err := encodeOutcome(out)
		if err != nil || !chk.check(spec.scale.Name, spec.keys[i], false, sum, errText) {
			rep.Failed++
		}
		if out.Err != nil {
			oom += isOOM(errText)
		} else {
			sums = append(sums, out.Summary)
		}
	}
	if len(p.done) != len(spec.keys) {
		rep.fail("campaign logged %d completions for %d cells", len(p.done), len(spec.keys))
	}
	return countWork(sums, oom)
}

func passTotals(passes []campaignPass) []string {
	var out []string
	for _, p := range passes {
		out = append(out, fmt.Sprintf("%.3f", p.total.Seconds()))
	}
	return out
}

// campaignE2E derives the end-to-end values of campaign passes. A hit is
// a figure table answered from the campaign's memo (the tail percentiles
// are medians over passes of each pass's percentile); a cold latency is
// a cell's time from the batch's submission to its result.
func campaignE2E(setup float64, passes []campaignPass, peak float64) e2e {
	var totals, hits, hitP90, hitP99, done []float64
	cells, wall := 0, 0.0
	for _, p := range passes {
		totals = append(totals, p.total.Seconds())
		hits = append(hits, p.hits...)
		hitP90 = append(hitP90, quantile(p.hits, 0.9))
		hitP99 = append(hitP99, quantile(p.hits, 0.99))
		for _, d := range p.done {
			done = append(done, ms(d))
		}
		cells += len(p.outcomes)
		wall += p.total.Seconds()
	}
	return e2e{
		setup: setup, campaign: median(totals), peak: peak,
		hitP50: median(hits), hitP90: median(hitP90), hitP99: median(hitP99), coldP50: median(done),
		cellsPerS: ratio(float64(cells), wall),
	}
}

func traceCampaign(o options, spec campaignSpec, setupFn func() (time.Duration, error), rep *report, chk *checker) error {
	build, err := timeSetup(setupReps, setupFn)
	if err != nil {
		return err
	}
	plain := runCampaignPass(spec, o.workers, o.seed)
	plainCounts := checkCampaignPass(spec, plain, rep, chk)

	resetPeakRSS()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tsetup, err := timeSetup(setupReps, setupFn)
	if err != nil {
		pprof.StopCPUProfile()
		return err
	}
	traced := runCampaignPass(spec, o.workers, o.seed)
	pprof.StopCPUProfile()
	peak := peakRSSMB()
	counts := checkCampaignPass(spec, traced, rep, chk)
	plain2 := runCampaignPass(spec, o.workers, o.seed)
	if counts != plainCounts || checkCampaignPass(spec, plain2, rep, chk) != plainCounts {
		rep.fail("simulated work counts differ between the traced and the untraced passes")
	}
	untraced := (plain.total.Seconds() + plain2.total.Seconds()) / 2
	campaignE2E(tsetup, []campaignPass{traced}, peak).set(rep, "traced.")
	rep.set("trace.overhead_frac", "1", ratio(traced.total.Seconds(), untraced)-1)

	self, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}
	serial := serialCells(spec.scale, spec.keys)
	noteSlowest(rep, spec.keys, serial)
	var keys []experiments.Key
	var sums []metrics.Summary
	for i, out := range traced.outcomes {
		if out.Err == nil {
			keys = append(keys, spec.keys[i])
			sums = append(sums, out.Summary)
		}
	}
	codecs, err := timeCodecs(o.workDir, spec.scale.Name, keys, sums)
	if err != nil {
		return err
	}
	layerReport(rep, layerInputs{
		counts: counts, self: self, build: build, serial: serial,
		poolEff: ratio(sum(serial)/1e3, float64(o.workers)*untraced),
		fieldNs: fieldEvalNs(spec.scale, spec.keys), sleepNs: simSleepNs(), codecs: codecs,
	})
	return nil
}

// ---- serve-mixed ----

// servePassNominal is about the length of a serve-mixed pass on a quiet
// 2-CPU host. A run makes --seconds / servePassNominal passes (at least
// one), each on its own seeded population. The count does not depend on
// how fast the passes go, so every run of a seed serves the same
// requests.
const servePassNominal = 10

func runServe(o options, rep *report, chk *checker) error {
	rep.note("serve-mixed: %d keys, %d interactive + %d bulk requests per pass, %d workers, 2 clients",
		popSize, nInteractive, nBulk, o.workers)
	setupFn, err := serverSetup(o)
	if err != nil {
		return err
	}
	if o.trace {
		return traceServe(o, makeTraffic(o.seed, 0, nInteractive, nBulk), setupFn, rep, chk)
	}
	setup, err := timeSetup(setupReps, setupFn)
	if err != nil {
		return err
	}
	var passes []*servePass
	var peaks []float64
	for i := 0; i < max(1, o.seconds/servePassNominal); i++ {
		resetPeakRSS()
		p, err := runServePass(makeTraffic(o.seed, i, nInteractive, nBulk), o.workDir, o.workers, false, chk)
		if err != nil {
			return err
		}
		peaks = append(peaks, peakRSSMB())
		passes = append(passes, p)
	}
	serveE2E(setup, passes, median(peaks)).set(rep, "")
	tallyServe(rep, passes)
	return nil
}

// serverSetup returns the serve-mixed set-up step: serve.New with its
// disk store, over an empty cache directory. Nothing is cached during
// set-up, so one directory serves every repetition. The loopback
// listener is left out: binding it costs the kernel ~0.2 ms here, an
// order of magnitude more than the server's own start-up, and varies
// with the host rather than the program.
func serverSetup(o options) (func() (time.Duration, error), error) {
	dir, err := os.MkdirTemp(o.workDir, "setup-")
	if err != nil {
		return nil, err
	}
	return func() (time.Duration, error) {
		t0 := time.Now()
		srv, err := serve.New(serve.Config{ScaleName: "small", Workers: o.workers, CacheDir: dir})
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, srv.Drain(context.Background())
	}, nil
}

// tallyServe adds the passes' requests to the result and notes their
// cache-tier coverage.
func tallyServe(rep *report, passes []*servePass) {
	for i, p := range passes {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		rows := float64(p.cells)
		rep.note("pass %d: %.3f s (interactive done %.3f s, bulk %.3f s), %d requests (%d hits, %d cold), %d cells; sources disk %.4f memory %.4f computed %.4f; rejected %d",
			i, p.total.Seconds(), p.interDone.Seconds(), p.bulkDone.Seconds(), p.attempted, len(p.hit), len(p.cold), p.cells,
			ratio(float64(p.sources["disk"]), rows), ratio(float64(p.sources["memory"]), rows), ratio(float64(p.sources["computed"]), rows), p.rejected)
	}
}

// serveE2E derives the end-to-end values of serve-mixed passes. Passes
// draw different populations, so campaign_s is their mean.
func serveE2E(setup float64, passes []*servePass, peak float64) e2e {
	var totals, hits, cold []float64
	cells, wall := 0, 0.0
	for _, p := range passes {
		totals = append(totals, p.total.Seconds())
		hits = append(hits, p.hit...)
		cold = append(cold, p.cold...)
		cells += p.cells
		wall += p.total.Seconds()
	}
	return e2e{
		setup: setup, campaign: wall / float64(len(passes)), peak: peak,
		hitP50: median(hits), hitP90: quantile(hits, 0.9), hitP99: quantile(hits, 0.99), coldP50: median(cold),
		cellsPerS: ratio(float64(cells), wall),
	}
}

func traceServe(o options, tr traffic, setupFn func() (time.Duration, error), rep *report, chk *checker) error {
	build, err := timeSetup(setupReps, timed(func() error { return buildProblems(experiments.SmallScale(), tr.pop) }))
	if err != nil {
		return err
	}
	plain, err := runServePass(tr, o.workDir, o.workers, false, chk)
	if err != nil {
		return err
	}
	resetPeakRSS()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tsetup, err := timeSetup(setupReps, setupFn)
	var traced *servePass
	if err == nil {
		traced, err = runServePass(tr, o.workDir, o.workers, true, chk)
	}
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	peak := peakRSSMB()
	plain2, err := runServePass(tr, o.workDir, o.workers, false, chk)
	if err != nil {
		return err
	}
	tallyServe(rep, []*servePass{plain, traced, plain2})
	counts := traced.counts()
	if counts != plain.counts() || counts != plain2.counts() {
		rep.fail("simulated work counts differ between the traced and the untraced passes")
	}
	untraced := (plain.total.Seconds() + plain2.total.Seconds()) / 2
	serveE2E(tsetup, []*servePass{traced}, peak).set(rep, "traced.")
	rep.set("trace.overhead_frac", "1", ratio(traced.total.Seconds(), untraced)-1)

	self, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}
	serial := serialCells(experiments.SmallScale(), tr.pop)
	noteSlowest(rep, tr.pop, serial)
	keys, sums := traced.servedSummaries()
	codecs, err := timeCodecs(o.workDir, "small", keys, sums)
	if err != nil {
		return err
	}
	in := layerInputs{
		counts: counts, self: self, build: build, serial: serial,
		poolEff: ratio(sum(serial)/1e3, float64(o.workers)*untraced),
		fieldNs: fieldEvalNs(experiments.SmallScale(), tr.pop), sleepNs: simSleepNs(), codecs: codecs,
		serve: traced,
	}
	layerReport(rep, in)
	return nil
}

// ---- simulated work counts ----

// workCounts sums the simulated work of a set of cells. A host-speed
// change must leave every field unchanged.
type workCounts struct {
	steps, streamlines, msgs, bytes, loads, purges int64
	stealAttempts, stealHits, oomCells             int64
	prefetchIssued, prefetchHits                   int64
	seedsAdopted, sendFailed, traceEvents          int64
	vwall                                          float64
}

// countWork sums summaries in the given (deterministic) order.
func countWork(sums []metrics.Summary, oom int) workCounts {
	w := workCounts{oomCells: int64(oom)}
	for _, s := range sums {
		w.steps += s.Steps
		w.streamlines += s.StreamlinesCompleted
		w.msgs += s.MsgsSent
		w.bytes += s.BytesSent
		w.loads += s.BlocksLoaded
		w.purges += s.BlocksPurged
		w.stealAttempts += s.StealAttempts
		w.stealHits += s.StealHits
		w.prefetchIssued += s.PrefetchIssued
		w.prefetchHits += s.PrefetchHits
		w.seedsAdopted += s.SeedsAdopted
		w.sendFailed += s.SendFailed
		w.traceEvents += s.TraceEvents
		w.vwall += s.WallClock
	}
	return w
}

// counts sums the simulated work of every distinct cell the pass served,
// in digest order.
func (p *servePass) counts() workCounts {
	ids := p.sortedCells()
	var sums []metrics.Summary
	oom := 0
	for _, id := range ids {
		r := p.firstByCell[id]
		if r.errText != "" {
			oom += isOOM(r.errText)
			continue
		}
		if s, err := metrics.ParseSummary(r.summary); err == nil {
			sums = append(sums, s)
		}
	}
	return countWork(sums, oom)
}

// servedSummaries returns the unobserved cells the pass served with a
// summary, in digest order.
func (p *servePass) servedSummaries() ([]experiments.Key, []metrics.Summary) {
	var keys []experiments.Key
	var sums []metrics.Summary
	for _, id := range p.sortedCells() {
		r := p.firstByCell[id]
		if id.observed || r.errText != "" {
			continue
		}
		if s, err := metrics.ParseSummary(r.summary); err == nil {
			keys = append(keys, r.key)
			sums = append(sums, s)
		}
	}
	return keys, sums
}

func (p *servePass) sortedCells() []cellID {
	ids := make([]cellID, 0, len(p.firstByCell))
	for id := range p.firstByCell {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].digest != ids[j].digest {
			return ids[i].digest < ids[j].digest
		}
		return !ids[i].observed && ids[j].observed
	})
	return ids
}

// noteSlowest notes the slowest cells of a serial pass.
func noteSlowest(rep *report, keys []experiments.Key, serialMs []float64) {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return serialMs[idx[a]] > serialMs[idx[b]] })
	var parts []string
	for _, i := range idx[:min(5, len(idx))] {
		parts = append(parts, fmt.Sprintf("%s %.0fms", keys[i].Label(), serialMs[i]))
	}
	rep.note("slowest cells, one at a time: %s; all cells %.0f ms", strings.Join(parts, ", "), sum(serialMs))
}
