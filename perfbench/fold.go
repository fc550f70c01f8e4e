package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layer attribution: every CPU or heap sample is charged to the innermost
// frame of its stack that belongs to one of the repo's layers, in the
// spirit of per-stage cost accounting (each stage pays for the library
// code it calls). Standard-library and runtime frames called by a layer,
// such as the math.Sincos under radio fading or the mallocgc under a MAC
// event, therefore count as that layer. Repo packages that are not layers
// (metrics, the runtime.Virtual clock adapter, stats) are transparent: the
// walk continues to their caller. A stack with no layer frame goes to gc
// when it is a garbage-collector worker and to other otherwise.

const repoPrefix = "wgtt/internal/"

// cpuLayers are the layers the CPU profile is folded into, in report order.
var cpuLayers = []string{
	"radio", "phy", "csi", "mac", "ap", "client", "controller", "selector",
	"backhaul", "packet", "transport", "sim", "federation", "mobility",
	"urban", "core", "fleet", "gc", "other",
}

// heapLayers are the layers the heap profile is reported for; allocations
// charged to any other layer are reported under other.
var heapLayers = []string{
	"radio", "mac", "ap", "client", "controller", "backhaul", "packet",
	"transport", "sim", "federation", "core", "fleet", "other",
}

// isLayer holds the repo packages that are layers (gc and other are the
// fallbacks, not packages).
var isLayer = func() map[string]bool {
	m := make(map[string]bool)
	for _, l := range cpuLayers {
		if l != "gc" && l != "other" {
			m[l] = true
		}
	}
	return m
}()

// gcWorkers are runtime entry points whose stacks are collector work.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.forcegchelper":  true,
	"runtime.runfinq":        true,
}

// repoLayer returns the layer of one function name, or "" when the frame
// is not a layer frame. Sub-packages fold into their parent
// (backhaul/udp is backhaul).
func repoLayer(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if isLayer[rest] {
		return rest
	}
	return ""
}

// foldStack returns the layer a sample is charged to. stack lists function
// names innermost first, inlined frames expanded.
func foldStack(stack []string) string {
	for _, fn := range stack {
		if l := repoLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if gcWorkers[fn] || strings.HasPrefix(fn, "runtime.gcDrain") {
			return "gc"
		}
	}
	return "other"
}

// foldCPUProfile folds a gzipped pprof CPU profile into CPU seconds per
// layer.
func foldCPUProfile(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, st := range p.sampleTypes {
		if st == "cpu" {
			idx = i
		}
	}
	if idx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if idx >= len(s.values) {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		out[foldStack(stack)] += float64(s.values[idx]) / 1e9
	}
	return out, nil
}

// heapByLayer folds the process's cumulative heap allocation profile into
// estimated allocated bytes per layer, unsampled the way pprof does: a
// record of average object size s sampled at rate r stands for
// bytes/(1-exp(-s/r)) bytes. The profile is only current as of the last
// completed collection; callers collect first.
func heapByLayer(rate int) map[string]float64 {
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := make(map[string]float64)
	for i := range recs {
		r := &recs[i]
		if r.AllocBytes == 0 || r.AllocObjects == 0 {
			continue
		}
		b := float64(r.AllocBytes)
		if rate > 1 {
			avg := b / float64(r.AllocObjects)
			b /= 1 - math.Exp(-avg/float64(rate))
		}
		out[foldStack(symbolize(r.Stack()))] += b
	}
	return out
}

// symbolize expands program counters into function names, innermost
// first, inlined frames included.
func symbolize(pcs []uintptr) []string {
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if f.Function != "" {
			names = append(names, f.Function)
		}
		if !more {
			break
		}
	}
	return names
}

// profile is the part of a pprof profile.proto the folding needs.
type profile struct {
	sampleTypes []string
	samples     []profSample
	// locFuncs maps a location id to its function names, innermost
	// (inlined) first.
	locFuncs map[uint64][]string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes a gzipped profile.proto (github.com/google/pprof
// proto/profile.proto) with a minimal protobuf reader: only the fields the
// folding reads are decoded, everything else is skipped.
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
		strs       []string
		typeIdx    []int64
		funcName   = make(map[uint64]int64)
		locLines   = make(map[uint64][]uint64) // location → function ids
		samples    []profSample
		parseError error
	)
	fail := func(e error) {
		if parseError == nil {
			parseError = e
		}
	}
	err = walkFields(raw, func(field int, wt int, v uint64, b []byte) {
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			fail(walkFields(b, func(f, _ int, v uint64, _ []byte) {
				if f == 1 {
					t = int64(v)
				}
			}))
			typeIdx = append(typeIdx, t)
		case 2: // sample: Sample{location_id=1, value=2}
			var s profSample
			fail(walkFields(b, func(f, wt int, v uint64, b []byte) {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b, fail)
				case 2:
					for _, u := range appendVarints(nil, wt, v, b, fail) {
						s.values = append(s.values, int64(u))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location: Location{id=1, line=4}
			var id uint64
			var fns []uint64
			fail(walkFields(b, func(f, _ int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line{function_id=1}
					fail(walkFields(b, func(f, _ int, v uint64, _ []byte) {
						if f == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locLines[id] = fns
		case 5: // function: Function{id=1, name=2}
			var id uint64
			var name int64
			fail(walkFields(b, func(f, _ int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	if err == nil {
		err = parseError
	}
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string)}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for id, fns := range locLines {
		for _, f := range fns {
			p.locFuncs[id] = append(p.locFuncs[id], str(funcName[f]))
		}
	}
	return p, nil
}

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(buf []byte, fn func(field, wireType int, v uint64, b []byte)) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wt := int(key>>3), int(key&7)
		switch wt {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			fn(field, wt, v, nil)
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			fn(field, wt, 0, buf[n:n+int(l)])
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value) or packed (a length-delimited run).
func appendVarints(dst []uint64, wt int, v uint64, b []byte, fail func(error)) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			fail(errors.New("bad packed varint"))
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
