package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// refsFile holds the reference outcome digest of every cell the
// workloads can request, generated once from the seed commit with
// `perfbench -gen-refs perfbench/refs.txt`. A line reads
//
//	<scale> <key digest, 16 hex> <observed 0|1> <outcome digest, 16 hex>
//
//go:embed refs.txt
var refsFile []byte

// refKey addresses one reference: a cell at a scale, observed or not.
type refKey struct {
	scale    string
	digest   string // first 16 hex digits of experiments.Key.Digest
	observed bool
}

func newRefKey(scale string, k experiments.Key, observed bool) refKey {
	return refKey{scale: scale, digest: k.Digest()[:16], observed: observed}
}

// outcomeDigest fingerprints a cell outcome: the SHA-256 of its
// summary/v1 canonical bytes, or of its deterministic error string.
func outcomeDigest(summary []byte, errText string) string {
	var sum [32]byte
	if errText != "" {
		sum = sha256.Sum256([]byte("error:" + errText))
	} else {
		sum = sha256.Sum256(summary)
	}
	return hex.EncodeToString(sum[:8])
}

// parseRefs reads a reference table.
func parseRefs(r io.Reader) (map[refKey]string, error) {
	refs := map[refKey]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 || (f[2] != "0" && f[2] != "1") || len(f[1]) != 16 || len(f[3]) != 16 {
			return nil, fmt.Errorf("refs line %d: malformed %q", n, line)
		}
		refs[refKey{scale: f[0], digest: f[1], observed: f[2] == "1"}] = f[3]
	}
	return refs, sc.Err()
}

// formatRefs renders a reference table in sorted order.
func formatRefs(refs map[refKey]string) []byte {
	keys := make([]refKey, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.scale != b.scale {
			return a.scale < b.scale
		}
		if a.digest != b.digest {
			return a.digest < b.digest
		}
		return !a.observed && b.observed
	})
	var buf bytes.Buffer
	buf.WriteString("# scale keydigest16 observed outcomedigest16 (perfbench -gen-refs)\n")
	for _, k := range keys {
		obs := "0"
		if k.observed {
			obs = "1"
		}
		fmt.Fprintf(&buf, "%s %s %s %s\n", k.scale, k.digest, obs, refs[k])
	}
	return buf.Bytes()
}

// checker compares outcomes with the references. Cells without a
// reference are collected for an untimed recomputation (verifyMissing).
type checker struct {
	refs     map[refKey]string
	missing  map[refKey]missingCell
	failures []string
}

// missingCell is an outcome seen without a reference.
type missingCell struct {
	key      experiments.Key
	observed bool
	got      string
}

func newChecker(refs map[refKey]string) *checker {
	return &checker{refs: refs, missing: map[refKey]missingCell{}}
}

// check records whether one outcome matches its reference and reports
// false on a mismatch. An outcome without a reference passes for now
// and is queued for verifyMissing.
func (c *checker) check(scale string, k experiments.Key, observed bool, summary []byte, errText string) bool {
	rk := newRefKey(scale, k, observed)
	got := outcomeDigest(summary, errText)
	want, ok := c.refs[rk]
	if !ok {
		if prev, seen := c.missing[rk]; seen && prev.got != got {
			c.failf("%s (observed=%v): outcome changed between requests", k.Label(), observed)
			return false
		}
		c.missing[rk] = missingCell{key: k, observed: observed, got: got}
		return true
	}
	if got != want {
		c.failf("%s (observed=%v): outcome digest %s, reference %s", k.Label(), observed, got, want)
		return false
	}
	return true
}

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// verifyMissing recomputes every cell that had no reference through a
// fresh experiments.Campaign and compares the outcome bytes, returning
// how many cells disagreed. It runs untimed, after the measurement.
func (c *checker) verifyMissing(workers int) int {
	if len(c.missing) == 0 {
		return 0
	}
	bad := 0
	for _, observed := range []bool{false, true} {
		byScale := map[string][]missingCell{}
		for _, m := range c.missing {
			if m.observed == observed {
				sc := scaleOf(m.key)
				byScale[sc] = append(byScale[sc], m)
			}
		}
		for scale, cells := range byScale {
			sc, _ := experiments.ScaleByName(scale)
			camp := experiments.NewCampaign(sc)
			camp.Workers = workers
			camp.Observe = observed
			keys := make([]experiments.Key, len(cells))
			for i, m := range cells {
				keys[i] = m.key
			}
			camp.RunKeys(keys)
			for _, m := range cells {
				sum, errText, err := encodeOutcome(camp.Run(m.key))
				if err != nil || outcomeDigest(sum, errText) != m.got {
					c.failf("%s (observed=%v): served outcome differs from a fresh computation", m.key.Label(), observed)
					bad++
				}
			}
		}
	}
	return bad
}

// scaleOf names the scale a workload key runs at: the wide-sparse cells
// are the only ones beyond the small scale's processor range.
func scaleOf(k experiments.Key) string {
	if k.Procs > 32 {
		return "default"
	}
	return "small"
}

// encodeOutcome returns an outcome's canonical summary bytes or its
// error text.
func encodeOutcome(out experiments.Outcome) ([]byte, string, error) {
	if out.Err != nil {
		return nil, out.Err.Error(), nil
	}
	b, err := out.Summary.CanonicalJSON()
	return b, "", err
}

// genRefs computes the reference table for every cell the workloads
// can request: the figure and wide cells unobserved, and the serve
// universe both unobserved and observed.
func genRefs(workers int, log func(string)) (map[refKey]string, error) {
	refs := map[refKey]string{}
	add := func(scale string, keys []experiments.Key, observed bool) error {
		sc, _ := experiments.ScaleByName(scale)
		camp := experiments.NewCampaign(sc)
		camp.Workers = workers
		camp.Observe = observed
		camp.RunKeys(keys)
		for _, k := range keys {
			sum, errText, err := encodeOutcome(camp.Run(k))
			if err != nil {
				return fmt.Errorf("%s: %v", k.Label(), err)
			}
			refs[newRefKey(scale, k, observed)] = outcomeDigest(sum, errText)
		}
		log(fmt.Sprintf("refs: %d %s cells (observed=%v)", len(keys), scale, observed))
		return nil
	}
	if err := add("small", universe(), false); err != nil {
		return nil, err
	}
	if err := add("small", universe(), true); err != nil {
		return nil, err
	}
	if err := add("small", figuresKeys(), false); err != nil {
		return nil, err
	}
	if err := add("default", wideKeys(), false); err != nil {
		return nil, err
	}
	return refs, nil
}
