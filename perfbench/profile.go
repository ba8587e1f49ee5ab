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

// selfSamples folds a gzipped pprof CPU profile by the package of each
// sample's leaf frame (its innermost inlined function): the self time of
// every program package. Program packages are keyed by their directory
// under internal/ (hw, vmx, ...); the Go runtime, GC included, is
// "runtime"; everything else is "other". It returns the folded counts and
// the total sample count.
func selfSamples(gz []byte) (map[string]int64, int64, error) {
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
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 {
			continue
		}
		name := ""
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			if si := p.funcName[fns[0]]; si >= 0 && int(si) < len(p.strs) {
				name = p.strs[si]
			}
		}
		out[layerOf(name)] += s.count
		total += s.count
	}
	return out, total, nil
}

// layerOf maps a fully qualified Go function name to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "covirt/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		return pkg
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// pprofProfile is the part of profile.proto the folding needs.
type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strs     []string
}

type pprofSample struct {
	locs  []uint64 // leaf first
	count int64    // the first sample value: samples
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case fProfileSample:
			var s pprofSample
			first := true
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fSampleLocation:
					return eachVarint(w, v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return eachVarint(w, v, m, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(m, func(f, w int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			name := int64(-1)
			err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("pprof: truncated profile")

// eachField walks the fields of one protobuf message. For a varint field v
// holds the value; for a length-delimited one msg holds the bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field, packed or not.
func eachVarint(wire int, v uint64, msg []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		msg = msg[n:]
	}
	return nil
}
