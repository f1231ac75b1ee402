package main

import (
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vec"
)

// microBudget bounds each layer timing.
const microBudget = 150 * time.Millisecond

// perOp times op in batches sized to take at least a millisecond and
// returns the median nanoseconds per call over the batches run within
// microBudget (at least five). op receives a call counter that keeps
// rising across batches, so cycling through inputs reaches all of them.
func perOp(op func(i int)) float64 {
	next := 0
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for end := next + n; next < end; next++ {
			op(next)
		}
		return time.Since(t0)
	}
	n := 1
	for batch(n) < time.Millisecond && n < 1<<24 {
		n *= 2
	}
	var per []float64
	deadline := time.Now().Add(microBudget)
	for len(per) < 5 || time.Now().Before(deadline) {
		per = append(per, float64(batch(n).Nanoseconds())/float64(n))
	}
	return median(per)
}

var sinkV3 vec.V3

// fieldEvalNs times Field.Eval over the seed points of the workload's
// problems, each under its own dataset's field.
func fieldEvalNs(sc experiments.Scale, keys []experiments.Key) float64 {
	type eval struct {
		f field.Field
		p vec.V3
	}
	var evals []eval
	seen := map[[2]string]bool{}
	for _, k := range keys {
		id := [2]string{string(k.Dataset), string(k.Seeding)}
		if seen[id] {
			continue
		}
		seen[id] = true
		prob, err := experiments.BuildProblem(k.Dataset, k.Seeding, sc)
		if err != nil {
			continue
		}
		f := k.Dataset.Field()
		for _, p := range prob.Seeds {
			evals = append(evals, eval{f, p})
		}
	}
	if len(evals) == 0 {
		return 0
	}
	return perOp(func(i int) {
		e := evals[i%len(evals)]
		sinkV3 = e.f.Eval(e.p)
	})
}

// Sleep timing shape: sleepProcs processes with distinct periods, so
// every Sleep goes through the event heap and a process switch.
const (
	sleepProcs = 16
	sleepEach  = 2000
)

// simSleepNs times sim.Proc.Sleep events on a kernel of interleaving
// processes, in nanoseconds per Sleep.
func simSleepNs() float64 {
	var per []float64
	deadline := time.Now().Add(microBudget)
	for len(per) < 5 || time.Now().Before(deadline) {
		k := sim.New()
		for i := 0; i < sleepProcs; i++ {
			d := 1 + float64(i)*1e-3
			k.Spawn("sleeper", func(p *sim.Proc) {
				for j := 0; j < sleepEach; j++ {
					p.Sleep(d)
				}
			})
		}
		t0 := time.Now()
		if err := k.Run(); err != nil {
			return 0
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/(sleepProcs*sleepEach))
	}
	return median(per)
}

// codecTimes holds the store and codec layer timings, in microseconds.
type codecTimes struct {
	storeGet, storePut, keyParse, keyDigest, sumEncode, sumParse float64
}

// timeCodecs times the key and summary codecs over the workload's own
// cells, then Store.Put of their outcomes into a scratch store and
// Store.Get back out of it.
func timeCodecs(workDir, scale string, keys []experiments.Key, sums []metrics.Summary) (codecTimes, error) {
	var t codecTimes
	canon := make([][]byte, len(keys))
	for i, k := range keys {
		canon[i] = k.CanonicalJSON()
	}
	enc := make([][]byte, len(sums))
	for i, s := range sums {
		b, err := s.CanonicalJSON()
		if err != nil {
			return t, err
		}
		enc[i] = b
	}
	t.keyParse = perOp(func(i int) { experiments.ParseKey(canon[i%len(canon)]) }) / 1e3
	t.keyDigest = perOp(func(i int) { keys[i%len(keys)].Digest() }) / 1e3
	if len(sums) > 0 {
		t.sumEncode = perOp(func(i int) { sums[i%len(sums)].CanonicalJSON() }) / 1e3
		t.sumParse = perOp(func(i int) { metrics.ParseSummary(enc[i%len(enc)]) }) / 1e3
	}
	if len(enc) == 0 {
		return t, nil
	}
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(dir)
	if err != nil {
		return t, err
	}
	scope := serve.Scope{Scale: scale}
	n := min(len(keys), len(enc))
	var perr error
	for i := 0; i < n; i++ {
		if err := st.Put(scope, keys[i], serve.Entry{Summary: enc[i]}); err != nil {
			return t, err
		}
	}
	t.storePut = perOp(func(i int) {
		if err := st.Put(scope, keys[i%n], serve.Entry{Summary: enc[i%n]}); err != nil {
			perr = err
		}
	}) / 1e3
	t.storeGet = perOp(func(i int) {
		if _, ok, err := st.Get(scope, keys[i%n]); err != nil || !ok {
			perr = errOrMiss(err)
		}
	}) / 1e3
	return t, perr
}
