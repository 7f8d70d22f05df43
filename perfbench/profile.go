package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile captures a CPU profile of the process in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the CPU seconds attributed to each
// package (see attribute).
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return selfSeconds(p.buf.Bytes())
}

// attribute names the package a CPU sample is charged to. frames run
// from the leaf (innermost, inlined callees first) to the root. Samples
// with a garbage-collector frame anywhere are "gc"; otherwise the
// innermost frame in a repository package names it (so math.Pow called
// from workload.ZipfWeights is workload time, and mallocgc called from
// linalg is linalg time), or "http" when net/http is reached first.
func attribute(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "mlbench/internal/"); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "net/http.") {
			return "http"
		}
		if strings.HasPrefix(f, "main.") {
			return "perfbench"
		}
	}
	return "other"
}

// selfSeconds decodes a gzipped pprof CPU profile (the profile.proto
// wire format; only the fields needed here) and sums each sample's CPU
// time by attribute.
func selfSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUvarints(s.locs, v, b)
				case 2:
					for _, u := range appendUvarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out[attribute(frames)] += float64(s.values[1]) / 1e9 // values: [samples, cpu ns]
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value (wire type 0) or its bytes (wire
// type 2). Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field's values, packed (b set)
// or not (v).
func appendUvarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
