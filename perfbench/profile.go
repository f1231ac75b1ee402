package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the program's layers the profile fold reports, named after
// the internal/ package that owns each (core split by receiver). Frames
// of other internal packages count as "other"; samples with no program
// frame count as "client" when the benchmark's own code is on the stack
// (package main, or repro/perfbench in its test binary) and as
// "runtime" otherwise.
var layers = []string{
	"field", "vec", "integrate", "core.master", "core.thief", "core", "sim", "comm",
	"store", "grid", "trace", "prefetch", "faults", "obs", "metrics", "experiments",
	"serve", "seeds", "other", "runtime", "client",
}

const internalPrefix = "repro/internal/"

// layerOf charges a stack to a layer. frames lists function names from
// the innermost outwards.
func layerOf(frames []string) string {
	client := false
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			switch {
			case pkg == "core" && strings.Contains(rest, ".(*master)."):
				return "core.master"
			case pkg == "core" && strings.Contains(rest, ".(*thief)."):
				return "core.thief"
			}
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
			client = true
		}
	}
	if client {
		return "client"
	}
	return "runtime"
}

// foldProfile reads a gzipped pprof CPU profile and returns the CPU
// seconds charged to each layer by layerOf.
func foldProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		if len(s.values) == 0 {
			continue
		}
		// The last sample value of a Go CPU profile is CPU nanoseconds.
		out[layerOf(frames)] += float64(s.values[len(s.values)-1]) / 1e9
	}
	return out, nil
}

// profile is the subset of profile.proto the fold needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walk(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case fProfileSample:
			var s sample
			err := walk(msg, func(field int, v uint64, m []byte) error {
				switch field {
				case fSampleLocation:
					return repeated(v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return repeated(v, m, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(msg, func(field int, v uint64, m []byte) error {
				switch field {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(m, func(field int, v uint64, _ []byte) error {
						if field == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(msg, func(field int, v uint64, _ []byte) error {
				switch field {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of the string table")
		}
	}
	return p, nil
}

// walk decodes one protobuf message, calling fn per field with the
// varint value (wire type 0) or the length-delimited payload (type 2).
// Fixed-width fields are skipped.
func walk(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either its packed (msg)
// or its unpacked (v) encoding.
func repeated(v uint64, msg []byte, add func(uint64)) error {
	if msg == nil {
		add(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		msg = msg[n:]
	}
	return nil
}
