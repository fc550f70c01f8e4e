// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — a corridor drive sweep, a street-grid city, or a connected
// metro — through the public API of internal/core, internal/urban and
// internal/fleet, checks every operation's outputs, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload corridor --seed 1 --seconds 20 --trace 0
//
// A timed run (--trace 0) reports the end-to-end metrics with tracing off.
// A traced run (--trace 1) reports the per-layer metrics: it runs every
// operation once untraced with nproc metro workers and once with the
// metrics registries on, one metro worker, and the CPU and heap profiles
// of its own process folded by layer, and fails the operation unless both
// produce identical simulated outputs. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heapSampleRate is the heap profile's sampling rate in a traced run
// (bytes per sample; the runtime default is 512 KiB).
const heapSampleRate = 64 << 10

func main() {
	// The CPU the process spent before main: the Go runtime's start-up and
	// every package's initialization, wgtt's precomputed tables among them.
	startupCPU := cpuSeconds()
	os.Exit(run(os.Args[1:], startupCPU, os.Stdout, os.Stderr))
}

func run(args []string, startupCPU float64, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 20, "how long to measure; whole rounds are always completed")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ops, err := round(*workload, *seed)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		fs.Usage()
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		runtime.MemProfileRate = heapSampleRate
		res = tracedRun(ops, budget, stderr)
	} else {
		res = timedRun(ops, budget, startupCPU, stderr)
	}
	printTable(stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// sample is the process state at a phase boundary.
type sample struct {
	at    time.Time
	cpu   float64 // process CPU seconds, all threads
	alloc uint64  // cumulative heap bytes allocated
}

func sampleNow() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{cpu: cpuSeconds(), alloc: ms.TotalAlloc, at: time.Now()}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter marks the phases of one operation: its set-up calls run from
// begin to setupDone, its simulate phase from setupDone to simDone. The
// benchmark's own work after simDone (its checks, plan and digests) is in
// neither.
type meter struct {
	start      time.Time
	setupS     float64
	setup, end sample
	setupSeen  bool
	atSimDone  func() // runs right after the end sample, if set
}

func (m *meter) begin() { m.start = time.Now() }

func (m *meter) setupDone() {
	if !m.setupSeen {
		m.setupS = time.Since(m.start).Seconds()
		m.setup = sampleNow()
		m.setupSeen = true
	}
}

func (m *meter) simDone() {
	m.end = sampleNow()
	if m.atSimDone != nil {
		m.atSimDone()
	}
}

// opRunner counts operations and checks each: its outputs, and that they
// are identical to the same operation's in the first round.
type opRunner struct {
	digests  map[int]uint64
	attempts int
	failures int
	stderr   io.Writer
}

func (o *opRunner) verify(i int, res *opResult, err error) bool {
	o.attempts++
	if err == nil {
		err = runChecks(res)
	}
	if err == nil {
		if d, ok := o.digests[i]; !ok {
			o.digests[i] = res.digest
		} else if d != res.digest {
			err = fmt.Errorf("%s: outputs differ from the first round's", res.spec)
		}
	}
	if err != nil {
		o.failures++
		fmt.Fprintln(o.stderr, "FAIL", err)
		return false
	}
	return true
}

// phase accumulates simulate-phase totals.
type phase struct {
	simS, wallS, cpuS float64
	allocB            float64
	horizonS, bits    float64
}

func (p *phase) add(res *opResult, from, to sample) {
	p.simS += res.phaseSimS
	p.wallS += to.at.Sub(from.at).Seconds()
	p.cpuS += to.cpu - from.cpu
	p.allocB += float64(to.alloc - from.alloc)
	p.horizonS += res.simS
	p.bits += res.goodputBits
}

// best keeps, per operation, the fastest of its rounds. The machine is
// shared: another tenant's load only ever slows an operation down, so the
// fastest of several rounds spaced a round apart is a steadier estimate of
// the program's own cost than a mean or a median.
func (p *phase) best(o phase) {
	if p.simS == 0 {
		*p = o
		return
	}
	p.wallS = math.Min(p.wallS, o.wallS)
	p.cpuS = math.Min(p.cpuS, o.cpuS)
	p.allocB = math.Min(p.allocB, o.allocB)
}

// timedRun runs whole rounds with tracing off for the measuring budget and
// reports the end-to-end metrics over each operation's fastest round.
// setup_s is one cold set-up: the process's start-up CPU plus the wall
// time of the first round's set-up calls, the first time this process
// makes them.
func timedRun(ops []opSpec, budget time.Duration, startupCPU float64, stderr io.Writer) result {
	o := &opRunner{digests: make(map[int]uint64), stderr: stderr}
	// One metro worker: on a small shared machine, a barrier waits for
	// the slower of two workers, and either vCPU's steal stalls it; with
	// nproc workers the metro's sim-s/s spread across seeds was 0.24 of its
	// median on a 2-vCPU VM, against 0.07 to 0.11 for the single-threaded
	// workloads. The traced run's replica keeps nproc workers.
	rc := runConfig{workers: 1}
	setupS := startupCPU
	best := make([]phase, len(ops))
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		var total phase
		for i, spec := range ops {
			// Each operation starts on a collected heap, so that the
			// previous one's garbage is not collected on its clock.
			runtime.GC()
			m := &meter{}
			res, err := runOp(spec, rc, m)
			if r == 0 {
				setupS += m.setupS
			}
			if o.verify(i, res, err) {
				var p phase
				p.add(res, m.setup, m.end)
				best[i].best(p)
				total.add(res, m.setup, m.end)
			}
		}
		fmt.Fprintf(stderr, "round %d: %.1f sim-s in %.2f s wall\n", r, total.simS, total.wallS)
	}
	fmt.Fprintf(stderr, "setup: %.4f s start-up CPU + %.4f s first-round set-up calls\n", startupCPU, setupS-startupCPU)
	return summarizeTimed(best, setupS, o.attempts, o.failures)
}

// summarizeTimed turns each operation's fastest round into the end-to-end
// metrics.
func summarizeTimed(best []phase, setupS float64, attempts, failures int) result {
	res := result{Attempted: attempts, Failed: failures, Correct: failures == 0, Metrics: map[string]metric{}}
	var sum phase
	for _, p := range best {
		sum.simS += p.simS
		sum.wallS += p.wallS
		sum.cpuS += p.cpuS
		sum.allocB += p.allocB
		sum.horizonS += p.horizonS
		sum.bits += p.bits
	}
	res.set("setup_s", "s", setupS)
	res.set("sim_s_per_wall_s", "sim-s/s", sum.simS/sum.wallS)
	res.set("cpu_s_per_sim_s", "cpu-s/sim-s", sum.cpuS/sum.simS)
	res.set("alloc_mb_per_sim_s", "MB/sim-s", sum.allocB/1e6/sum.simS)
	res.set("peak_rss_mb", "MB", peakRSSMB())
	res.set("goodput_mbps", "Mb/s", sum.bits/1e6/sum.horizonS)
	return res
}

// layerAgg accumulates a traced run's per-layer quantities over its
// completed operations.
type layerAgg struct {
	ops        int
	rounds     int
	simS       float64            // traced operations' horizons
	cpu        map[string]float64 // CPU seconds per layer
	heap       map[string]float64 // bytes per layer
	lc         layerCounts        // summed over operations
	replica    phase              // the timed-configuration replicas
	events     uint64
	gcCycles   float64
	gcCPU      float64
	usedCPU    float64
	tracedWall float64
	replWall   float64
}

// gcState reads the collector's counters from runtime/metrics.
type gcState struct{ cycles, gcCPU, totalCPU, idleCPU float64 }

var gcSamples = []string{
	"/gc/cycles/automatic:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGC() gcState {
	s := make([]runtimemetrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	runtimemetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case runtimemetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case runtimemetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcState{cycles: v(0), gcCPU: v(1), totalCPU: v(2), idleCPU: v(3)}
}

// tracedRun runs whole rounds for the measuring budget. Each operation runs
// first in the timed configuration (the replica, which also supplies the
// wall-clock layer figures: time per event, GC, metro epochs), then traced.
func tracedRun(ops []opSpec, budget time.Duration, stderr io.Writer) result {
	o := &opRunner{digests: make(map[int]uint64), stderr: stderr}
	a := &layerAgg{cpu: map[string]float64{}, heap: map[string]float64{}}
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		for i, spec := range ops {
			runtime.GC()
			g0 := readGC()
			m := &meter{}
			rep, err := runOp(spec, runConfig{workers: runtime.NumCPU()}, m)
			g1 := readGC()
			var tr *opResult
			var prof *opProfile
			if err == nil {
				err = runChecks(rep)
			}
			if err == nil {
				tr, prof, err = tracedOp(spec)
			}
			if err == nil && tr.digest != rep.digest {
				err = fmt.Errorf("%s: traced outputs differ from the timed run's", spec)
			}
			if !o.verify(i, tr, err) {
				continue
			}
			a.ops++
			a.simS += tr.simS
			for l, v := range prof.cpu {
				a.cpu[l] += v
			}
			for l, v := range prof.heap {
				a.heap[l] += v
			}
			a.lc.add(&tr.layer)
			a.lc.switchMS = append(a.lc.switchMS, tr.switchMS...)
			a.lc.epochMS = append(a.lc.epochMS, rep.layer.epochMS...)
			a.replica.add(rep, m.setup, m.end)
			a.events += rep.layer.events
			a.gcCycles += g1.cycles - g0.cycles
			a.gcCPU += g1.gcCPU - g0.gcCPU
			a.usedCPU += (g1.totalCPU - g1.idleCPU) - (g0.totalCPU - g0.idleCPU)
			a.replWall += m.end.at.Sub(m.start).Seconds()
			a.tracedWall += prof.wallS
		}
		a.rounds++
	}
	res := result{Attempted: o.attempts, Failed: o.failures, Correct: o.failures == 0, Metrics: map[string]metric{}}
	layerMetrics(&res, a)
	if a.replWall > 0 {
		fmt.Fprintf(stderr, "tracing overhead: traced %.2f s − timed %.2f s = %.2f s wall (%+.1f%%)\n",
			a.tracedWall, a.replWall, a.tracedWall-a.replWall, 100*(a.tracedWall/a.replWall-1))
	}
	return res
}

// opProfile is one traced operation's folded profiles.
type opProfile struct {
	cpu   map[string]float64 // CPU seconds per layer
	heap  map[string]float64 // bytes per heap layer, summing to the op's allocation
	wallS float64
}

// tracedOp runs one operation with the metrics registries on and one
// worker, under the CPU profiler, and folds both profiles by layer.
func tracedOp(spec opSpec) (*opResult, *opProfile, error) {
	runtime.GC()
	runtime.GC()
	h0 := heapByLayer(heapSampleRate)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	// Both profiles end with the simulate phase, so that the benchmark's
	// own checks, plan and digests are charged to no layer.
	var h1 map[string]float64
	m := &meter{atSimDone: func() {
		pprof.StopCPUProfile()
		runtime.GC()
		runtime.GC()
		h1 = heapByLayer(heapSampleRate)
	}}
	res, err := runOp(spec, runConfig{traced: true, workers: 1}, m)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	cpu, err := foldCPUProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	prof := &opProfile{cpu: cpu, heap: map[string]float64{}, wallS: m.end.at.Sub(m.start).Seconds()}
	var total float64
	delta := map[string]float64{}
	for l, v := range h1 {
		if d := v - h0[l]; d > 0 {
			delta[heapLayer(l)] += d
			total += d
		}
	}
	// Scale the sampled estimate to the bytes the runtime counted.
	allocated := float64(m.end.alloc - ms0.TotalAlloc)
	for l, d := range delta {
		prof.heap[l] = d / total * allocated
	}
	return res, prof, nil
}

// heapLayer maps a folded layer onto the heap report's layers.
func heapLayer(l string) string {
	for _, h := range heapLayers {
		if h == l {
			return l
		}
	}
	return "other"
}

func (lc *layerCounts) add(o *layerCounts) {
	lc.events += o.events
	lc.grants += o.grants
	lc.txColl += o.txColl
	lc.respColl += o.respColl
	lc.respTotal += o.respTotal
	lc.busyS += o.busyS
	lc.channelS += o.channelS
	lc.downEnq += o.downEnq
	lc.ringOver += o.ringOver
	lc.startRewinds += o.startRewinds
	lc.dupesSuppressed += o.dupesSuppressed
	lc.dupDeliveries += o.dupDeliveries
	lc.tcpRetx += o.tcpRetx
	lc.tcpTimeouts += o.tcpTimeouts
	lc.udpDelayMS = append(lc.udpDelayMS, o.udpDelayMS...)
	lc.csiReports += o.csiReports
	lc.selDecisions += o.selDecisions
	lc.switches += o.switches
	lc.stopRetx += o.stopRetx
	lc.upUnique += o.upUnique
	lc.upDup += o.upDup
	lc.downSent += o.downSent
	lc.downCopies += o.downCopies
	lc.fedHandoffs += o.fedHandoffs
	lc.csiRelays += o.csiRelays
	lc.migrations += o.migrations
	lc.wireBytes += o.wireBytes
	lc.seamOutageS += o.seamOutageS
	lc.sentOverPlan += o.sentOverPlan
	lc.strayPlanned += o.strayPlanned
	lc.buildS += o.buildS
	lc.planS += o.planS
}

// layerMetrics turns a traced run's totals into the per-layer metrics.
// Counts are per round (every round is the same operations), rates per
// simulated second.
func layerMetrics(res *result, a *layerAgg) {
	rounds := float64(a.rounds)
	if a.ops == 0 {
		rounds = 1
	}
	perSim := func(v float64) float64 { return v / a.simS }
	perRound := func(v float64) float64 { return v / rounds }
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	lc := &a.lc
	for _, l := range cpuLayers {
		res.set(l+".cpu_s_per_sim_s", "cpu-s/sim-s", perSim(a.cpu[l]))
	}
	for _, l := range heapLayers {
		res.set(l+".alloc_mb_per_sim_s", "MB/sim-s", perSim(a.heap[l]/1e6))
	}
	res.set("sim.events_per_sim_s", "1/sim-s", perSim(float64(lc.events)))
	res.set("sim.wall_us_per_event", "us", ratio(a.replica.wallS*1e6, float64(a.events)))
	res.set("gc.cycles", "count", perRound(a.gcCycles))
	res.set("gc.cpu_frac", "fraction", ratio(a.gcCPU, a.usedCPU))

	res.set("mac.airtime_frac", "fraction", ratio(lc.busyS, lc.channelS))
	res.set("mac.grants_per_sim_s", "1/sim-s", perSim(float64(lc.grants)))
	res.set("mac.tx_collisions", "count", perRound(float64(lc.txColl)))
	res.set("mac.resp_collision_frac", "fraction", ratio(float64(lc.respColl), float64(lc.respTotal)))

	res.set("ap.down_enqueued_per_sim_s", "1/sim-s", perSim(float64(lc.downEnq)))
	res.set("ap.ring_overwrites", "count", perRound(float64(lc.ringOver)))
	res.set("ap.start_rewinds", "count", perRound(float64(lc.startRewinds)))
	res.set("client.dupes_suppressed", "count", perRound(float64(lc.dupesSuppressed)))
	res.set("client.dup_deliveries", "count", perRound(float64(lc.dupDeliveries)))
	res.set("transport.tcp_retransmits", "count", perRound(float64(lc.tcpRetx)))
	res.set("transport.tcp_timeouts", "count", perRound(float64(lc.tcpTimeouts)))
	res.set("transport.udp_delay_ms_p50", "ms", quantile(sortedCopy(lc.udpDelayMS), 0.5))

	res.set("controller.csi_reports_per_sim_s", "1/sim-s", perSim(float64(lc.csiReports)))
	res.set("selector.decisions_per_sim_s", "1/sim-s", perSim(float64(lc.selDecisions)))
	res.set("controller.switches", "count", perRound(float64(lc.switches)))
	res.set("controller.switch_ms_p50", "ms", quantile(sortedCopy(lc.switchMS), 0.5))
	res.set("controller.stop_retransmits", "count", perRound(float64(lc.stopRetx)))
	res.set("controller.uplink_dup_frac", "fraction", ratio(float64(lc.upDup), float64(lc.upDup+lc.upUnique)))
	res.set("controller.copies_per_downlink", "copies/pkt", ratio(float64(lc.downCopies), float64(lc.downSent)))
	res.set("federation.handoffs", "count", perRound(float64(lc.fedHandoffs)))
	res.set("federation.csi_relays_per_sim_s", "1/sim-s", perSim(float64(lc.csiRelays)))

	res.set("fleet.migrations", "count", perRound(float64(lc.migrations)))
	res.set("fleet.seam_outage_s", "sim-s", perRound(lc.seamOutageS))
	res.set("fleet.handoff_wire_bytes", "bytes", perRound(float64(lc.wireBytes)))
	res.set("fleet.cbr_sent_over_plan", "count", perRound(lc.sentOverPlan))
	res.set("fleet.cbr_stray_planned", "count", perRound(lc.strayPlanned))
	epochs := sortedCopy(lc.epochMS)
	res.set("fleet.epoch_ms_p50", "ms", quantile(epochs, 0.5))
	maxEpoch := 0.0
	if len(epochs) > 0 {
		maxEpoch = epochs[len(epochs)-1]
	}
	res.set("fleet.epoch_ms_max", "ms", maxEpoch)

	res.set("core.build_s", "s", perRound(lc.buildS))
	res.set("urban.plan_s", "s", perRound(lc.planS))
}

// printTable writes the metrics by name with their units.
func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
