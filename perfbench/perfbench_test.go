package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// The same seed must yield the same population and request sequence; a
// different seed a different one.
func TestTrafficDeterministic(t *testing.T) {
	a, b := makeTraffic(7, 0, 500, 20), makeTraffic(7, 0, 500, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated two different traffics")
	}
	if c := makeTraffic(8, 0, 500, 20); reflect.DeepEqual(a.pop, c.pop) {
		t.Fatal("seeds 7 and 8 generated the same population")
	}
	if c := makeTraffic(7, 1, 500, 20); reflect.DeepEqual(a.pop, c.pop) {
		t.Fatal("passes 0 and 1 of seed 7 drew the same population")
	}
	if len(a.pop) != popSize {
		t.Fatalf("population has %d keys, want %d", len(a.pop), popSize)
	}
	seen := map[experiments.Key]bool{}
	uni := map[experiments.Key]bool{}
	for _, k := range universe() {
		uni[k] = true
	}
	for _, k := range a.pop {
		if seen[k] || !uni[k] {
			t.Fatalf("population key %s is a duplicate or outside the universe", k.Label())
		}
		seen[k] = true
	}
	for seed := uint64(0); seed < 200; seed++ {
		for sub := 0; sub < 4; sub++ {
			if n := len(population(seed, sub)); n != popSize {
				t.Fatalf("seed %d pass %d: population of %d", seed, sub, n)
			}
		}
	}
	observed := 0
	for _, r := range a.interactive {
		if r.observe {
			observed++
		}
	}
	if observed != 500/observeEvery {
		t.Fatalf("%d observed requests in 500, want %d", observed, 500/observeEvery)
	}
	for _, r := range a.bulk {
		if len(r.keys) != batchCells {
			t.Fatalf("bulk batch of %d cells", len(r.keys))
		}
	}
	if !reflect.DeepEqual(figuresKeys(), figuresKeys()) || len(figuresKeys()) != 72 || len(wideKeys()) != 8 {
		t.Fatal("campaign key lists are not the fixed 72 and 8 cells")
	}
}

// Every workload key has a checked-in reference.
func TestRefsCoverWorkloads(t *testing.T) {
	refs, err := parseRefs(bytes.NewReader(refsFile))
	if err != nil {
		t.Fatal(err)
	}
	need := func(scale string, keys []experiments.Key, observed bool) {
		for _, k := range keys {
			if _, ok := refs[newRefKey(scale, k, observed)]; !ok {
				t.Fatalf("no reference for %s %s observed=%v", scale, k.Label(), observed)
			}
		}
	}
	need("small", figuresKeys(), false)
	need("default", wideKeys(), false)
	need("small", universe(), false)
	need("small", universe(), true)
	if got := formatRefs(refs); !bytes.Equal(got, refsFile) {
		t.Fatal("refs.txt is not in canonical order")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"math.archExp", "math.Exp", "repro/internal/field.Supernova.Eval", "repro/internal/integrate.StepWith[...]"}, "field"},
		{[]string{"runtime.mapaccess1", "repro/internal/core.(*master).assign", "repro/internal/core.(*runState).run"}, "core.master"},
		{[]string{"repro/internal/core.(*thief).run.func1"}, "core.thief"},
		{[]string{"repro/internal/core.(*worker).advance"}, "core"},
		{[]string{"sort.Slice", "repro/internal/seeds.SparseGrid"}, "seeds"},
		{[]string{"repro/internal/render.Gantt"}, "other"},
		{[]string{"encoding/json.Unmarshal", "main.runClient", "main.runServePass.func1"}, "client"},
		{[]string{"encoding/json.Marshal", "repro/internal/serve.writeJSON", "main.(*timedHandler).ServeHTTP"}, "serve"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// pb is a minimal protobuf writer for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, msg []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(msg)))
	p.b = append(p.b, msg...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// The fold charges each synthetic stack to the innermost program layer,
// with inlined frames (several lines in one location) read innermost
// first and both packed and unpacked sample encodings.
func TestFoldSyntheticProfile(t *testing.T) {
	var prof pb
	strs := []string{"", "math.Exp", "repro/internal/field.Tokamak.Eval", "repro/internal/core.(*master).run", "main.runClient", "runtime.mallocgc"}
	fn := func(id, name uint64) {
		var f pb
		f.varint(fFunctionID, id)
		f.varint(fFunctionName, name)
		prof.bytes(fProfileFunction, f.b)
	}
	for i := 1; i < len(strs); i++ {
		fn(uint64(i), uint64(i))
	}
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(fLocationID, id)
		for _, f := range fns {
			var line pb
			line.varint(fLineFunction, f)
			l.bytes(fLocationLine, line.b)
		}
		prof.bytes(fProfileLocation, l.b)
	}
	loc(10, 1, 2) // math.Exp inlined into field.Tokamak.Eval
	loc(11, 3)
	loc(12, 4)
	loc(13, 5)
	var s1 pb // field under master: 3 ms, packed
	s1.packed(fSampleLocation, 10, 11, 12)
	s1.packed(fSampleValue, 3, 3e6)
	prof.bytes(fProfileSample, s1.b)
	var s2 pb // master alone: 2 ms, unpacked
	s2.varint(fSampleLocation, 11)
	s2.varint(fSampleValue, 2)
	s2.varint(fSampleValue, 2e6)
	prof.bytes(fProfileSample, s2.b)
	var s3 pb // allocation under the client: 5 ms
	s3.packed(fSampleLocation, 13, 12)
	s3.packed(fSampleValue, 5, 5e6)
	prof.bytes(fProfileSample, s3.b)
	var s4 pb // runtime alone: 1 ms
	s4.packed(fSampleLocation, 13)
	s4.packed(fSampleValue, 1, 1e6)
	prof.bytes(fProfileSample, s4.b)
	for _, s := range strs {
		prof.bytes(fProfileString, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	got, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"field": 0.003, "core.master": 0.002, "client": 0.005, "runtime": 0.001}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

// A real CPU profile from runtime/pprof parses, and a busy loop in this
// package lands in the client bucket.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total == 0 || got["client"] < total/2 {
		t.Fatalf("fold of a busy loop = %v", got)
	}
}

// cheapKeys are small cells that run in milliseconds.
func cheapKeys() []experiments.Key {
	return []experiments.Key{
		{Dataset: experiments.Thermal, Seeding: experiments.Sparse, Alg: "ondemand", Procs: 8},
		{Dataset: experiments.Thermal, Seeding: experiments.Sparse, Alg: "stealing", Procs: 16},
	}
}

// A tampered reference digest is counted as a failed cell; the true
// references pass; and two passes report identical simulated work.
func TestTamperedReferenceFails(t *testing.T) {
	refs, err := parseRefs(bytes.NewReader(refsFile))
	if err != nil {
		t.Fatal(err)
	}
	spec := campaignSpec{scale: experiments.SmallScale(), keys: cheapKeys()}
	p := runCampaignPass(spec, 2, 1)

	rep := newReport()
	counts := checkCampaignPass(spec, p, rep, newChecker(refs))
	if rep.Failed != 0 || rep.Attempted != 2 {
		t.Fatalf("true references: failed %d of %d", rep.Failed, rep.Attempted)
	}

	tampered := map[refKey]string{}
	for k, v := range refs {
		tampered[k] = v
	}
	rk := newRefKey("small", spec.keys[1], false)
	tampered[rk] = strings.Repeat("0", 16)
	rep2 := newReport()
	chk := newChecker(tampered)
	checkCampaignPass(spec, p, rep2, chk)
	if rep2.Failed != 1 || len(chk.failures) != 1 {
		t.Fatalf("tampered reference: failed %d, failures %v", rep2.Failed, chk.failures)
	}

	again := checkCampaignPass(spec, runCampaignPass(spec, 1, 2), newReport(), newChecker(refs))
	if again != counts || counts.steps == 0 {
		t.Fatalf("work counts differ between passes: %+v vs %+v", counts, again)
	}
}

// A cell without a reference is recomputed and compared after the run.
func TestMissingReferenceRecomputed(t *testing.T) {
	spec := campaignSpec{scale: experiments.SmallScale(), keys: cheapKeys()}
	p := runCampaignPass(spec, 1, 1)
	chk := newChecker(map[refKey]string{})
	rep := newReport()
	checkCampaignPass(spec, p, rep, chk)
	if len(chk.missing) != 2 || rep.Failed != 0 {
		t.Fatalf("missing %d, failed %d", len(chk.missing), rep.Failed)
	}
	if bad := chk.verifyMissing(1); bad != 0 {
		t.Fatalf("recomputation disagreed on %d cells: %v", bad, chk.failures)
	}
	for rk, m := range chk.missing {
		m.got = strings.Repeat("f", 16)
		chk.missing[rk] = m
		break
	}
	if bad := chk.verifyMissing(1); bad != 1 {
		t.Fatalf("a wrong outcome passed the recomputation (%d bad)", bad)
	}
}

// A small serve pass answers every request correctly, serves repeats from
// the disk tier, and reports the same simulated work twice.
func TestServePassSmall(t *testing.T) {
	refs, err := parseRefs(bytes.NewReader(refsFile))
	if err != nil {
		t.Fatal(err)
	}
	pop := cheapKeys()
	tr := traffic{pop: pop}
	for i := 0; i < 40; i++ {
		tr.interactive = append(tr.interactive, request{keys: []int{i % 2}, observe: i%observeEvery == observeEvery-1})
	}
	tr.bulk = []request{{keys: []int{0, 1}}, {keys: []int{1, 0}}}
	var counts []workCounts
	for _, timed := range []bool{false, true} {
		chk := newChecker(refs)
		p, err := runServePass(tr, t.TempDir(), 2, timed, chk)
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 || p.attempted != 42 || len(chk.failures) != 0 || len(chk.missing) != 0 {
			t.Fatalf("failed %d of %d: %v (missing refs %d)", p.failed, p.attempted, chk.failures, len(chk.missing))
		}
		if p.sources["disk"] == 0 || p.sources["computed"] == 0 || len(p.hit) == 0 {
			t.Fatalf("sources %v, %d hits", p.sources, len(p.hit))
		}
		if timed && p.handlerDur[p.hitID[0]].Load() == 0 {
			t.Fatal("timed handler recorded nothing")
		}
		counts = append(counts, p.counts())
	}
	if counts[0] != counts[1] {
		t.Fatalf("work counts differ between passes: %+v vs %+v", counts[0], counts[1])
	}
}

// BENCHMARK.json names exactly the metrics the runs report.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("workloads %v, want %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Fatalf("end_to_end[%d] = %+v, want %s %s", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(pl))
	}
	for i, m := range pl {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Fatalf("per_layer[%d] = %+v, want %s %s", i, b.PerLayer[i], m.name, m.unit)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wlFigures, "--trace", "2"},
		{"--workload", wlFigures, "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q", args, code, out.String())
		}
	}
}
