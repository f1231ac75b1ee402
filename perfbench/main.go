// Command perfbench is the repository's benchmark: it times the figure
// campaign, a wide-processor coordination sweep and mixed slserve
// traffic through the program's public packages, checks every outcome
// against reference digests, and prints one JSON result line.
//
//	perfbench --workload <figures-small|wide-sparse|serve-mixed> --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// runs; with --trace 1 it carries the per-layer metrics of a CPU-profiled
// run of the same workload and seed (see README.md).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workers  int
	workDir  string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, failures and notes.
type report struct {
	result
	notes    []string
	failures []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var genRefsPath string
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the CPU-profiled per-layer run")
	fs.StringVar(&o.workDir, "workdir", ".bench_build/tmp", "scratch directory for caches and stores")
	fs.StringVar(&genRefsPath, "gen-refs", "", "regenerate the reference digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.workers = runtime.NumCPU()
	o.trace = trace == 1
	if genRefsPath != "" {
		refs, err := genRefs(o.workers, func(s string) { fmt.Fprintln(stderr, s) })
		if err == nil {
			err = os.WriteFile(genRefsPath, formatRefs(refs), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !isWorkload(o.workload) || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	refs, err := parseRefs(bytes.NewReader(refsFile))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	rep := newReport()
	chk := newChecker(refs)
	if o.workload == wlServe {
		err = runServe(o, rep, chk)
	} else {
		err = runCampaign(o, rep, chk)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if bad := chk.verifyMissing(o.workers); bad > 0 {
		rep.Failed += bad
	}
	for _, f := range chk.failures {
		rep.fail("%s", f)
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return writeReport(stdout, o, rep)
}

func isWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// writeReport prints the host facts, the notes, any failures and a
// human-readable metric table, then the JSON result as the last line.
func writeReport(w io.Writer, o options, rep *report) int {
	bw := bufio.NewWriter(w)
	host, _ := json.Marshal(map[string]any{
		"numcpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"workers": o.workers, "clients": clientsOf(o.workload), "seed": o.seed,
		"workload": o.workload, "seconds": o.seconds, "trace": o.trace,
	})
	fmt.Fprintf(bw, "# host %s\n", host)
	for _, n := range rep.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(bw, "# FAIL %s\n", f)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "# %-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Fprintf(bw, "# %-34s %14.6g %s\n", "failed_frac", frac(rep.Failed, rep.Attempted), "1")
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	if err := bw.Flush(); err != nil {
		return 1
	}
	return 0
}

// clientsOf is the number of concurrent load generators a workload runs.
func clientsOf(workload string) int {
	if workload == wlServe {
		return 2
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the VmHWM high-water mark where the kernel
// allows it.
func resetPeakRSS() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func isOOM(errText string) int {
	if strings.Contains(errText, "oom:") {
		return 1
	}
	return 0
}

func errOrMiss(err error) error {
	if err != nil {
		return err
	}
	return errors.New("store: entry written by the benchmark read back as a miss")
}
