package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"wgtt/internal/packet"
)

func TestFoldStack(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"innermost repo frame wins", []string{
			"wgtt/internal/radio.(*Link).SNRInto",
			"wgtt/internal/mac.(*Medium).grant",
			"wgtt/internal/sim.(*Engine).RunUntil",
			"main.runCorridor",
		}, "radio"},
		{"math called by radio is radio", []string{
			"math.sincos",
			"math.Sincos",
			"wgtt/internal/radio.(*Fader).GainsDB",
			"wgtt/internal/mac.(*Medium).grant",
		}, "radio"},
		{"runtime allocation called by mac is mac", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgc",
			"runtime.newobject",
			"wgtt/internal/mac.(*Medium).deliver.func1",
			"wgtt/internal/sim.(*Engine).stepUntil",
		}, "mac"},
		{"gc assist under a layer stays with the layer", []string{
			"runtime.scanobject",
			"runtime.gcDrainN",
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"wgtt/internal/packet.Encode",
		}, "packet"},
		{"gc mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "gc"},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "gc"},
		{"non-layer repo package is transparent", []string{
			"wgtt/internal/metrics.(*Counter).Inc",
			"wgtt/internal/controller.(*Controller).onCSI",
		}, "controller"},
		{"clock adapter is transparent", []string{
			"wgtt/internal/sim.(*Engine).After",
			"wgtt/internal/runtime.virtualClock.After",
			"wgtt/internal/ap.(*AP).handleStop",
		}, "sim"},
		{"sub-package folds into its layer", []string{"wgtt/internal/backhaul/udp.(*Fabric).Send"}, "backhaul"},
		{"generic and closure names", []string{
			"wgtt/internal/fleet.ForEach[...].func1",
		}, "fleet"},
		{"benchmark frames are skipped", []string{
			"main.(*udpTap).onPacket",
			"wgtt/internal/core.Build.func3",
		}, "core"},
		{"scheduler alone is other", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{"empty stack is other", nil, "other"},
	}
	for _, c := range cases {
		if got := foldStack(c.stack); got != c.want {
			t.Errorf("%s: foldStack = %q, want %q", c.name, got, c.want)
		}
	}
}

// protoWriter encodes the profile.proto subset the parser reads.
type protoWriter struct{ bytes.Buffer }

func (w *protoWriter) varint(field int, v uint64) {
	w.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	w.Write(binary.AppendUvarint(nil, v))
}

func (w *protoWriter) bytesField(field int, b []byte) {
	w.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	w.Write(binary.AppendUvarint(nil, uint64(len(b))))
	w.Write(b)
}

func (w *protoWriter) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	w.bytesField(field, b)
}

func msg(build func(w *protoWriter)) []byte {
	var w protoWriter
	build(&w)
	return w.Bytes()
}

// syntheticProfile is a CPU profile with known per-layer totals: 30 ms in
// math.Sincos inlined into radio, 20 ms in a mac frame (sample written with
// unpacked fields), and 50 ms in a GC worker.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"math.Sincos", "wgtt/internal/radio.(*Fader).GainsDB",
		"wgtt/internal/mac.(*Medium).grant", "runtime.scanobject", "runtime.gcBgMarkWorker"}
	raw := msg(func(w *protoWriter) {
		w.bytesField(1, msg(func(v *protoWriter) { v.varint(1, 1); v.varint(2, 2) }))
		w.bytesField(1, msg(func(v *protoWriter) { v.varint(1, 3); v.varint(2, 4) }))
		// Location 1: Sincos inlined into GainsDB (innermost line first).
		w.bytesField(4, msg(func(l *protoWriter) {
			l.varint(1, 1)
			l.bytesField(4, msg(func(ln *protoWriter) { ln.varint(1, 1) }))
			l.bytesField(4, msg(func(ln *protoWriter) { ln.varint(1, 2) }))
		}))
		w.bytesField(4, msg(func(l *protoWriter) {
			l.varint(1, 2)
			l.bytesField(4, msg(func(ln *protoWriter) { ln.varint(1, 3) }))
		}))
		w.bytesField(4, msg(func(l *protoWriter) {
			l.varint(1, 3)
			l.bytesField(4, msg(func(ln *protoWriter) { ln.varint(1, 4) }))
		}))
		w.bytesField(4, msg(func(l *protoWriter) {
			l.varint(1, 4)
			l.bytesField(4, msg(func(ln *protoWriter) { ln.varint(1, 5) }))
		}))
		for id, name := range []uint64{5, 6, 7, 8, 9} {
			id, name := uint64(id+1), name
			w.bytesField(5, msg(func(f *protoWriter) { f.varint(1, id); f.varint(2, name) }))
		}
		w.bytesField(2, msg(func(s *protoWriter) { s.packed(1, 1, 2); s.packed(2, 3, 30e6) }))
		w.bytesField(2, msg(func(s *protoWriter) { s.varint(1, 2); s.varint(2, 2); s.varint(2, 20e6) }))
		w.bytesField(2, msg(func(s *protoWriter) { s.packed(1, 3, 4); s.packed(2, 5, 50e6) }))
		for _, s := range strs {
			w.bytesField(6, []byte(s))
		}
	})
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldCPUProfileSynthetic(t *testing.T) {
	got, err := foldCPUProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"radio": 0.03, "mac": 0.02, "gc": 0.05}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("%s = %g s, want %g s", l, got[l], w)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := foldCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage input parsed")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x0a, 0x05, 0x01}) // length runs past the end
	zw.Close()
	if _, err := foldCPUProfile(gz.Bytes()); err == nil {
		t.Fatal("truncated profile parsed")
	}
}

var sink []byte

// TestHeapByLayerChargesCaller allocates through packet.Encode and checks
// the heap fold charges the bytes to packet, not to the runtime or the
// test.
func TestHeapByLayerChargesCaller(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	runtime.GC()
	runtime.GC()
	before := heapByLayer(1)
	p := &packet.CSIReport{At: 1}
	for i := 0; i < 2000; i++ {
		sink = packet.Encode(p)
	}
	runtime.GC()
	runtime.GC()
	after := heapByLayer(1)
	grew := after["packet"] - before["packet"]
	if grew < float64(2000*len(sink)) {
		t.Fatalf("packet layer grew %.0f bytes, want at least %d", grew, 2000*len(sink))
	}
}
