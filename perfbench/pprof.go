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

// modules are the simulator layers host CPU time is attributed to, in
// report order. "other" holds the remaining packages (memaddr, stats,
// and this benchmark's own code); "runtime.gc" holds samples with no
// frame of this module at all (garbage collector workers and the
// scheduler).
var modules = []string{
	"workload", "sim", "cpu", "cache", "txcache", "mechanism",
	"memctrl", "memimage", "obs", "pmemaccel", "other", "runtime.gc",
}

// moduleOf maps a fully qualified Go function name to its module, or ""
// for a frame that belongs to no module of the simulator (the Go
// runtime and standard library).
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "pmemaccel/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "workload", "trace", "pheap":
			return "workload"
		case "sim", "cpu", "cache", "txcache", "mechanism", "memctrl", "memimage", "obs":
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "pmemaccel.") {
		return "pmemaccel"
	}
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	return ""
}

// collectFn is the durable check's root: its cumulative share is
// pmemaccel.collect_frac.
const collectFn = "pmemaccel.(*System).collect"

// attribution is a CPU profile reduced to module self shares.
type attribution struct {
	total   int64            // sampled CPU nanoseconds
	self    map[string]int64 // by module (see modules)
	collect int64            // samples with collectFn on the stack
}

// shares returns each module's fraction of the sampled time (all zero
// for an empty profile) and the collect share.
func (a attribution) shares() (map[string]float64, float64) {
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		out[m] = 0
		if a.total > 0 {
			out[m] = float64(a.self[m]) / float64(a.total)
		}
	}
	if a.total == 0 {
		return out, 0
	}
	return out, float64(a.collect) / float64(a.total)
}

// attribute charges every sample of a runtime/pprof CPU profile to the
// innermost frame that belongs to a simulator module: runtime frames
// (allocation, map access, GC assists) go to the module that called
// them, and samples with no module frame go to runtime.gc.
func attribute(profile []byte) (attribution, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{self: map[string]int64{}}
	for _, s := range p.samples {
		mod, inCollect := "", false
		for _, loc := range s.locs {
			for _, fn := range p.frames[loc] {
				if mod == "" {
					mod = moduleOf(fn)
				}
				if fn == collectFn {
					inCollect = true
				}
			}
		}
		if mod == "" {
			mod = "runtime.gc"
		}
		a.total += s.value
		a.self[mod] += s.value
		if inCollect {
			a.collect += s.value
		}
	}
	return a, nil
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	samples []sample
	// frames lists each location's function names, innermost first
	// (a location holds several when calls were inlined).
	frames map[uint64][]string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes. Only the fields the attribution
// needs are read; the rest are skipped.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		rawSample [][]byte
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{frames: map[uint64][]string{}}
	for id, fns := range locFuncs {
		for _, f := range fns {
			idx, ok := funcName[f]
			if !ok || idx < 0 || idx >= int64(len(strs)) {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", id, f)
			}
			p.frames[id] = append(p.frames[id], strs[idx])
		}
	}
	for _, b := range rawSample {
		var s sample
		var values []uint64
		if err := eachField(b, func(num int, v uint64, packed []byte) error {
			switch num {
			case 1:
				if packed != nil {
					return eachVarint(packed, func(v uint64) { s.locs = append(s.locs, v) })
				}
				s.locs = append(s.locs, v)
			case 2:
				if packed != nil {
					return eachVarint(packed, func(v uint64) { values = append(values, v) })
				}
				values = append(values, v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if len(values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s.value = int64(values[len(values)-1])
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks a protobuf message: fn receives each field's number
// and either its varint value (b nil) or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errors.New("profile: truncated fixed field")
			}
			buf = buf[w:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: truncated length-delimited field")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func eachVarint(buf []byte, fn func(uint64)) error {
	for len(buf) > 0 {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		buf = buf[n:]
	}
	return nil
}
