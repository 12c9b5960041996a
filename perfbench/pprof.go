package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes:
// just enough of the message (samples, locations with their inlined lines,
// functions, string table) to attribute samples to packages, without a
// dependency on github.com/google/pprof.

const internalPrefix = "astriflash/internal/"

// layerShares attributes each CPU sample to the layer of its innermost
// astriflash/internal/<layer> frame (subpackages count as their parent,
// e.g. obs/timeline as obs). Samples with no internal frame go to
// "runtime" when a runtime frame is on the stack (GC workers, scheduler)
// and to "other" otherwise. It returns each layer's share of all samples
// and the sample count.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	funcLayer := map[uint64]string{} // function id -> layer ("" if none)
	funcRuntime := map[uint64]bool{}
	for id, nameIdx := range p.funcName {
		if nameIdx < 0 || int(nameIdx) >= len(p.strings) {
			return nil, 0, fmt.Errorf("function %d: bad name index %d", id, nameIdx)
		}
		name := p.strings[nameIdx]
		if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
			funcLayer[id] = rest[:strings.IndexAny(rest+".", "./")]
		}
		funcRuntime[id] = strings.HasPrefix(name, "runtime.")
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer, sawRuntime := "", false
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break stack
				}
				sawRuntime = sawRuntime || funcRuntime[fn]
			}
		}
		switch {
		case layer != "":
		case sawRuntime:
			layer = "runtime"
		default:
			layer = "other"
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	for l := range counts {
		if _, known := shares[l]; !known {
			return nil, 0, fmt.Errorf("samples in unlisted layer %q", l)
		}
	}
	return shares, total, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // first value: the sample count
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string-table index
	strings  []string
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch {
		case num == fProfileSample && wire == 2:
			var s profSample
			var values []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, wire, v, sub)
				case fSampleValue:
					values = appendVarints(values, wire, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case num == fProfileLocation && wire == 2:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == fLocationID:
					id = v
				case num == fLocationLine && wire == 2:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case num == fProfileFunction && wire == 2:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case num == fProfileStrings && wire == 2:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, sub []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := varint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one message's fields, calling fn with the field number,
// wire type, and the varint value (wire 0) or payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and its length
// (0 if b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
