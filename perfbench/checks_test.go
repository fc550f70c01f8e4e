package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

// goodCorridor is a plausible corridor drive that passes every check.
func goodCorridor() *opResult {
	const T = 10.0
	down := cbrExpected(T, corridorDownMbps, datagramBytes)
	up := cbrExpected(T, corridorUpMbps, datagramBytes)
	return &opResult{
		spec:     opSpec{workload: "corridor", seed: 1, speedMPH: 25},
		simS:     T,
		channels: 1,
		udp: []udpFlow{
			{rateMbps: corridorDownMbps, bytes: datagramBytes, horizon: T, sent: uint64(down), distinct: uint64(down) - 500, repeats: 90, maxSeq: int64(down) - 2},
			{uplink: true, rateMbps: corridorUpMbps, bytes: datagramBytes, horizon: T, sent: uint64(up), distinct: uint64(up) - 10, maxSeq: int64(up) - 1},
		},
		tcp:         []tcpFlow{{acked: 900, frontier: 910, bytes: 910 * 1460}},
		airtime:     []float64{0.9},
		carried:     []bool{true},
		switchMS:    []float64{15, 16.5, 17, 18, 30},
		switchBand:  true,
		goodputBits: 8 * (float64((down-500+up-10)*datagramBytes) + 910*1460),
	}
}

// goodMetro is a plausible metro that passes every check.
func goodMetro() *opResult {
	return &opResult{
		spec:        opSpec{workload: "metro", seed: 1},
		simS:        10,
		channels:    6,
		airtime:     []float64{0.2, 0.3, 0, 0.2, 0.25, 0.3},
		carried:     []bool{true, true, false, true, true, true},
		goodputBits: 8 * 20 * 10 * 1e6 / 8,
		metro: &metroOut{
			clients: 20, crossings: 10, migrations: 10,
			seamOutageS: 2.5, epochS: 0.5,
			sent: 17600, expectSent: 17605,
			perClient: []float64{0.99, 0.98, 1.0},
		},
	}
}

func TestGoodResultsPass(t *testing.T) {
	for _, r := range []*opResult{goodCorridor(), goodMetro()} {
		if err := runChecks(r); err != nil {
			t.Fatalf("valid result rejected: %v", err)
		}
	}
}

// TestEveryCheckCanFail feeds each check a doctored result and expects
// exactly that check to reject it.
func TestEveryCheckCanFail(t *testing.T) {
	doctored := []struct {
		check  string
		base   func() *opResult
		doctor func(r *opResult)
	}{
		{"cbr_sent", goodCorridor, func(r *opResult) { r.udp[0].sent += 2; r.udp[0].maxSeq = 0 }},
		{"cbr_sent", goodCorridor, func(r *opResult) { r.udp[1].sent -= 2; r.udp[1].distinct -= 2; r.udp[1].maxSeq = 0 }},
		{"cbr_sent", goodMetro, func(r *opResult) { r.metro.sent = 17605 + 31 }},
		{"cbr_sent", goodMetro, func(r *opResult) { r.metro.sent = 17605 - 31 }},
		{"cbr_sent", goodMetro, func(r *opResult) { r.metro.straySent = 45; r.metro.sent = 17605 + 45 + 31 }},
		{"udp_seq_range", goodCorridor, func(r *opResult) { r.udp[0].distinct = r.udp[0].sent + 1 }},
		{"udp_seq_range", goodCorridor, func(r *opResult) { r.udp[1].maxSeq = int64(r.udp[1].sent) }},
		{"uplink_dedup", goodCorridor, func(r *opResult) { r.uplinkDupSeqs = 1 }},
		{"tcp_acks", goodCorridor, func(r *opResult) { r.tcp[0].acked = r.tcp[0].frontier + 1 }},
		{"udp_goodput_le_offered", goodCorridor, func(r *opResult) {
			// One datagram over the schedule (within the ±1 sent tolerance),
			// all delivered: more than the offered rate.
			r.udp[0].sent++
			r.udp[0].distinct = r.udp[0].sent
		}},
		{"udp_goodput_le_offered", goodMetro, func(r *opResult) { r.metro.perClient[1] = 1.2 }},
		{"channel_capacity", goodCorridor, func(r *opResult) { r.goodputBits = 66e6 * r.simS }},
		{"channel_capacity", goodMetro, func(r *opResult) { r.channels = 0 }},
		{"airtime_range", goodCorridor, func(r *opResult) { r.airtime[0] = 0 }},
		{"airtime_range", goodMetro, func(r *opResult) { r.airtime[3] = 1.01 }},
		{"airtime_range", goodCorridor, func(r *opResult) { r.airtime = nil }},
		{"airtime_range", goodMetro, func(r *opResult) { r.airtime[0] = 0 }},
		{"airtime_range", goodMetro, func(r *opResult) { r.airtime[2] = -0.1 }},
		{"airtime_range", goodMetro, func(r *opResult) {
			for i := range r.carried {
				r.carried[i] = false
			}
		}},
		{"switch_time_band", goodCorridor, func(r *opResult) { r.switchMS = []float64{5, 6, 7} }},
		{"switch_time_band", goodCorridor, func(r *opResult) { r.switchMS = []float64{23, 30, 40} }},
		{"switch_time_band", goodCorridor, func(r *opResult) { r.switchMS = nil }},
		{"metro_migrations", goodMetro, func(r *opResult) { r.metro.migrations = 9 }},
		{"metro_migrations", goodMetro, func(r *opResult) { r.metro.seamOutageS = 5.01 }},
	}
	covered := map[string]bool{}
	for i, d := range doctored {
		r := d.base()
		d.doctor(r)
		err := runChecks(r)
		if err == nil {
			t.Errorf("case %d: doctored result for %s passed", i, d.check)
			continue
		}
		if !strings.Contains(err.Error(), "check "+d.check+":") {
			t.Errorf("case %d: want check %s to fail, got %v", i, d.check, err)
		}
		covered[d.check] = true
	}
	for _, c := range checks {
		if !covered[c.name] {
			t.Errorf("check %s has no doctored case", c.name)
		}
	}
}

// TestVerifyCatchesNondeterminism: an operation whose outputs differ from
// its first round's fails.
func TestVerifyCatchesNondeterminism(t *testing.T) {
	var log bytes.Buffer
	o := &opRunner{digests: map[int]uint64{}, stderr: &log}
	r := goodCorridor()
	r.digest = 1
	if !o.verify(0, r, nil) {
		t.Fatal("first round rejected")
	}
	r2 := goodCorridor()
	r2.digest = 2
	if o.verify(0, r2, nil) {
		t.Fatal("differing outputs accepted")
	}
	if o.attempts != 2 || o.failures != 1 {
		t.Fatalf("attempts %d failures %d, want 2 and 1", o.attempts, o.failures)
	}
}

func TestMetroCBRExpected(t *testing.T) {
	s := sim.FromSeconds
	perS := metroMbps * 1e6 / (8 * datagramBytes)
	// No crossing: one datagram at t=0, then one per interval.
	stay := []urban.Visit{{Tile: 0, Exit: s(10)}}
	if got, _ := metroCBRExpected(stay, 10); got != cbrExpected(10, metroMbps, datagramBytes) {
		want := cbrExpected(10, metroMbps, datagramBytes)
		t.Fatalf("no crossing: %g, want %g", got, want)
	}
	// One crossing at 1.2 s: silent until the 1.5 s barrier.
	one := []urban.Visit{{Tile: 0, Exit: s(1.2)}, {Tile: 1, Enter: s(1.2), Exit: s(10)}}
	got, _ := metroCBRExpected(one, 10)
	if want := (10 - 0.3) * perS; got < want-2 || got > want+2 {
		t.Fatalf("one crossing: %g, want ≈ %g", got, want)
	}
	// Crossing back before the barrier: the gap runs to the barrier after
	// the last crossing, once.
	back := []urban.Visit{{Tile: 0, Exit: s(1.2)}, {Tile: 1, Enter: s(1.2), Exit: s(1.3)}, {Tile: 0, Enter: s(1.3), Exit: s(10)}}
	got, stray := metroCBRExpected(back, 10)
	if want := (10 - 0.3) * perS; got < want-2 || got > want+2 || stray != 0 {
		t.Fatalf("double crossing: %g (stray %g), want ≈ %g", got, stray, want)
	}
	// Leaving at exactly the barrier that admits: one stray epoch.
	onBarrier := []urban.Visit{{Tile: 0, Exit: s(1.2)}, {Tile: 1, Enter: s(1.2), Exit: s(1.5)}, {Tile: 0, Enter: s(1.5), Exit: s(10)}}
	got, stray = metroCBRExpected(onBarrier, 10)
	if want := (10 - 0.8) * perS; got < want-2 || got > want+2 || stray < 0.5*perS-1 || stray > 0.5*perS+1 {
		t.Fatalf("exit on the admitting barrier: %g (stray %g), want ≈ %g (stray ≈ %g)", got, stray, want, 0.5*perS)
	}
}

// TestBenchmarkJSONMatchesOutput pins BENCHMARK.json's metric names and
// units to what the command prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, command runs %v", names, workloadNames)
	}
	timed := summarizeTimed(nil, 0, 0, 0).Metrics
	layer := result{Metrics: map[string]metric{}}
	layerMetrics(&layer, &layerAgg{cpu: map[string]float64{}, heap: map[string]float64{}})
	compare := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		seen := map[string]bool{}
		for _, m := range listed {
			seen[m.Name] = true
			p, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s metric %s is listed but not printed", kind, m.Name)
			} else if p.Unit != m.Unit {
				t.Errorf("%s metric %s: listed unit %q, printed %q", kind, m.Name, m.Unit, p.Unit)
			}
		}
		var extra []string
		for n := range printed {
			if !seen[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics printed but not listed: %v", kind, extra)
		}
	}
	compare("end_to_end", spec.EndToEnd, timed)
	compare("per_layer", spec.PerLayer, layer.Metrics)
}
