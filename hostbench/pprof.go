package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// attributes: one entry per sample, each a call stack from the innermost
// frame outwards, plus the sampling period.
type cpuProfile struct {
	PeriodNs int64
	Samples  []profSample
}

// profSample is one aggregated stack: Count samples of CPU time, with
// Funcs[0] the innermost frame (inlined calls expanded).
type profSample struct {
	Count int64
	Funcs []profFunc
}

// profFunc names one frame: its fully qualified function and source file.
type profFunc struct {
	Name string
	File string
}

// parseCPUProfile decodes the gzipped profile.proto that
// pprof.StartCPUProfile writes. Only the fields attribution needs are read;
// the standard library has no decoder, and this one is small enough to
// carry.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawLine struct{ fn uint64 }
	var (
		samples   []rawSample
		locLines  = map[uint64][]rawLine{}
		funcName  = map[uint64]int64{}
		funcFile  = map[uint64]int64{}
		strs      []string
		period    int64
		decodeErr error
	)
	err = eachField(raw, func(tag int, v uint64, b []byte) {
		switch tag {
		case 2: // sample
			var s rawSample
			decodeErr = errors.Join(decodeErr, eachField(b, func(tag int, v uint64, b []byte) {
				switch tag {
				case 1:
					s.locs = appendVarints(s.locs, v, b, &decodeErr)
				case 2:
					for _, x := range appendVarints(nil, v, b, &decodeErr) {
						s.values = append(s.values, int64(x))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var lines []rawLine
			decodeErr = errors.Join(decodeErr, eachField(b, func(tag int, v uint64, b []byte) {
				switch tag {
				case 1:
					id = v
				case 4:
					var ln rawLine
					decodeErr = errors.Join(decodeErr, eachField(b, func(tag int, v uint64, _ []byte) {
						if tag == 1 {
							ln.fn = v
						}
					}))
					lines = append(lines, ln)
				}
			}))
			locLines[id] = lines
		case 5: // function
			var id uint64
			var name, file int64
			decodeErr = errors.Join(decodeErr, eachField(b, func(tag int, v uint64, _ []byte) {
				switch tag {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
			}))
			funcName[id], funcFile[id] = name, file
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{PeriodNs: period}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{Count: s.values[0]}
		for _, loc := range s.locs {
			for _, ln := range locLines[loc] {
				ps.Funcs = append(ps.Funcs, profFunc{Name: str(funcName[ln.fn]), File: str(funcFile[ln.fn])})
			}
		}
		p.Samples = append(p.Samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's tag
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(tag int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		tag, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			fn(tag, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			fn(tag, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value (b == nil) or a packed run.
func appendVarints(dst []uint64, v uint64, b []byte, errp *error) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			*errp = errors.Join(*errp, errors.New("truncated packed varint"))
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
