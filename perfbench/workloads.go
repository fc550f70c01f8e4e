package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"wgtt/internal/controller"
	"wgtt/internal/core"
	"wgtt/internal/fleet"
	"wgtt/internal/metrics"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/transport"
	"wgtt/internal/urban"
)

// An operation is one scenario simulated to its horizon: one corridor
// drive, one city or one metro. A round is the fixed list of operations a
// workload derives from the run seed; every run repeats whole rounds.

const datagramBytes = 1400

// Corridor: the 8-AP testbed road (Fig. 9), 3 clients following each other
// under WGTT, swept over Fig. 13 speeds with mixed traffic.
var corridorSpeedsMPH = []float64{15, 25, 35}

const (
	corridorSeedsPerSpeed = 2
	corridorDownMbps      = 20 // downlink UDP CBR on client 2
	corridorUpMbps        = 10 // uplink UDP CBR on client 3
)

// City: the ext-urban street grid (2x3 intersections, 40 m blocks, a 20 mph
// bus of 10 riders, a car, 2 pedestrians, 2 federation domains) with
// low-rate downlink UDP to every client.
const (
	citiesPerRound = 6
	cityDurationS  = 4
	cityMbps       = 0.4
)

func cityConfig() urban.Config {
	cfg := urban.DefaultConfig()
	cfg.BlockM = 40
	cfg.BusSpeedMPH = 20
	cfg.MaxDurationS = cityDurationS
	return cfg
}

// Metro: 3x3 tiles over a 6x6-intersection city with buses and cars enough
// for seam crossings, 1 Mb/s downlink UDP per client, 500 ms epochs.
const (
	metrosPerRound = 4
	metroMbps      = 1
	metroEpoch     = 500 * sim.Millisecond
)

func metroConfig() urban.MetroConfig {
	mc := urban.DefaultMetroConfig()
	mc.Tiles = urban.Tiling{Rows: 3, Cols: 3}
	mc.City.Rows, mc.City.Cols = 6, 6
	mc.City.BlockM = 50
	mc.City.APSpacingM = 30
	mc.City.Buses = 2
	mc.City.RidersPerBus = 2
	mc.City.Cars = 12
	mc.City.Pedestrians = 1
	mc.City.MaxDurationS = 10
	return mc
}

// opSpec is one operation of a round.
type opSpec struct {
	workload string
	seed     uint64
	speedMPH float64 // corridor only
}

func (o opSpec) String() string {
	if o.workload == "corridor" {
		return fmt.Sprintf("corridor(%.0fmph,seed=%d)", o.speedMPH, o.seed)
	}
	return fmt.Sprintf("%s(seed=%d)", o.workload, o.seed)
}

var workloadNames = []string{"corridor", "city", "metro"}

// round lists a workload's operations for a run seed.
func round(workload string, seed uint64) ([]opSpec, error) {
	var ops []opSpec
	switch workload {
	case "corridor":
		k := uint64(0)
		for _, v := range corridorSpeedsMPH {
			for j := 0; j < corridorSeedsPerSpeed; j++ {
				ops = append(ops, opSpec{workload: workload, seed: deriveSeed(seed, k), speedMPH: v})
				k++
			}
		}
	case "city":
		for k := uint64(0); k < citiesPerRound; k++ {
			ops = append(ops, opSpec{workload: workload, seed: deriveSeed(seed, k)})
		}
	case "metro":
		for k := uint64(0); k < metrosPerRound; k++ {
			ops = append(ops, opSpec{workload: workload, seed: deriveSeed(seed, k)})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	return ops, nil
}

// deriveSeed is splitmix64 over (run seed, operation index): the
// benchmark's own input generator, independent of the simulator's RNG.
func deriveSeed(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runConfig is how an operation is run: metrics registries on or off, and
// the metro's worker count.
type runConfig struct {
	traced  bool
	workers int
}

// udpFlow is one CBR flow as the benchmark observed it.
type udpFlow struct {
	uplink   bool
	rateMbps float64
	bytes    int
	horizon  float64 // seconds the sender ran
	sent     uint64
	distinct uint64 // distinct sequence numbers delivered
	repeats  uint64 // deliveries of an already-delivered sequence number
	maxSeq   int64  // highest delivered sequence number, -1 if none
}

// tcpFlow is one TCP bulk flow.
type tcpFlow struct {
	acked    uint64 // segments the sender saw acknowledged
	frontier uint64 // receiver's in-order segments
	bytes    uint64 // in-order payload bytes
}

// metroOut holds the metro-only outcomes.
type metroOut struct {
	clients     int
	crossings   int // counted by the benchmark from its own plan
	migrations  uint64
	seamOutageS float64
	epochS      float64
	sent        uint64
	expectSent  float64   // from the benchmark's own plan
	straySent   float64   // extra the exit-at-barrier fault sends (metroCBRExpected)
	perClient   []float64 // Mb/s
}

// opResult is everything the checks and the metrics read from one
// operation.
type opResult struct {
	spec opSpec
	simS float64 // simulated horizon
	// phaseSimS is the simulated time of the simulate phase: the horizon,
	// less the metro's first epoch, which runs before its set-up ends.
	phaseSimS float64
	channels  int
	udp       []udpFlow
	tcp       []tcpFlow
	// uplinkDupSeqs counts uplink sequence numbers the server saw twice.
	uplinkDupSeqs uint64
	airtime       []float64
	carried       []bool // per channel: delivered traffic
	switchMS      []float64
	switchBand    bool // corridor: the Table 1 switch-time check applies
	metro         *metroOut
	goodputBits   float64
	digest        uint64
	layer         layerCounts
}

// layerCounts are the per-layer quantities of one operation.
type layerCounts struct {
	events                                       uint64
	grants, txColl, respColl, respTotal          uint64
	busyS, channelS                              float64
	downEnq, ringOver, startRewinds              uint64
	dupesSuppressed, dupDeliveries               uint64
	tcpRetx, tcpTimeouts                         uint64
	udpDelayMS                                   []float64
	csiReports, selDecisions, switches, stopRetx uint64
	upUnique, upDup, downSent, downCopies        uint64
	fedHandoffs, csiRelays                       uint64
	migrations, wireBytes                        uint64
	seamOutageS                                  float64
	sentOverPlan, strayPlanned                   float64 // metro CBR datagrams
	epochMS                                      []float64
	switchMS                                     []float64
	buildS, planS                                float64
}

// runOp runs one operation, converting a panic into an error.
func runOp(spec opSpec, rc runConfig, m *meter) (res *opResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s panicked: %v", spec, r)
		}
	}()
	switch spec.workload {
	case "corridor":
		return runCorridor(spec, rc, m)
	case "city":
		return runCity(spec, rc, m)
	default:
		return runMetro(spec, rc, m)
	}
}

// udpTap observes one downlink UDP flow at the client's application:
// distinct and repeated sequence numbers, and each arrival's delay against
// the CBR send schedule (seq k is due at k·8B/R).
type udpTap struct {
	flow       uint32
	intervalMS float64
	seen       []uint64 // bitset of delivered sequence numbers
	distinct   uint64
	repeats    uint64
	maxSeq     int64
	delays     []float64 // ms; kept only when traced
	keepDelays bool
}

func newUDPTap(flow uint32, rateMbps float64, bytes int, keepDelays bool) *udpTap {
	return &udpTap{
		flow:       flow,
		intervalMS: float64(bytes*8) / rateMbps / 1000,
		maxSeq:     -1,
		keepDelays: keepDelays,
	}
}

func (t *udpTap) onPacket(p *packet.Packet, at sim.Time) {
	if p.FlowID != t.flow || p.Kind != packet.KindData {
		return
	}
	w := int(p.Seq / 64)
	for w >= len(t.seen) {
		t.seen = append(t.seen, 0)
	}
	bit := uint64(1) << (p.Seq % 64)
	if t.seen[w]&bit != 0 {
		t.repeats++
	} else {
		t.seen[w] |= bit
		t.distinct++
	}
	if int64(p.Seq) > t.maxSeq {
		t.maxSeq = int64(p.Seq)
	}
	if t.keepDelays {
		t.delays = append(t.delays, float64(at)/float64(sim.Millisecond)-float64(p.Seq)*t.intervalMS)
	}
}

func (t *udpTap) flowResult(sender *transport.UDPSender, rateMbps, horizon float64, uplink bool) udpFlow {
	return udpFlow{
		uplink: uplink, rateMbps: rateMbps, bytes: datagramBytes, horizon: horizon,
		sent: sender.Sent, distinct: t.distinct, repeats: t.repeats, maxSeq: t.maxSeq,
	}
}

// uplinkFlow reads the server-side arrivals of an uplink UDP flow.
func uplinkFlow(up *core.UpUDP, rateMbps, horizon float64) (udpFlow, uint64) {
	seen := make(map[uint32]bool, len(up.Receiver.Arrivals))
	f := udpFlow{uplink: true, rateMbps: rateMbps, bytes: datagramBytes, horizon: horizon,
		sent: up.Sender.Sent, maxSeq: -1}
	var dups uint64
	for _, a := range up.Receiver.Arrivals {
		if seen[a.Seq] {
			dups++
			continue
		}
		seen[a.Seq] = true
		f.distinct++
		if int64(a.Seq) > f.maxSeq {
			f.maxSeq = int64(a.Seq)
		}
	}
	return f, dups
}

// networkCounts reads the layers' public Stats of a finished network.
func networkCounts(n *core.Network, lc *layerCounts) {
	lc.events += n.Eng.Fired()
	for _, m := range n.Media {
		lc.grants += m.Grants
		lc.txColl += m.TxCollisions
		lc.respColl += m.RespCollisions
		lc.respTotal += m.RespTotal
		lc.busyS += m.BusyTime.Seconds()
		lc.channelS += n.Eng.Now().Seconds()
	}
	for _, a := range n.APs {
		lc.downEnq += a.Stats.DownEnqueued
		lc.ringOver += a.Stats.DownOverwritten
		lc.startRewinds += a.Stats.StartRewinds
	}
	for _, c := range n.Clients {
		lc.dupesSuppressed += c.Stats.DownlinkDupes
	}
	cs := n.CtlStats()
	lc.csiReports += cs.CSIReports
	lc.selDecisions += cs.SelectionDecisions
	lc.switches += cs.SwitchesDone
	lc.stopRetx += cs.StopRetransmits
	lc.upUnique += cs.UplinkUnique
	lc.upDup += cs.UplinkDuplicate
	lc.downSent += cs.DownlinkSent
	lc.downCopies += cs.DownlinkCopies
	fs := n.FedStats()
	lc.fedHandoffs += fs.Adoptions
	lc.csiRelays += fs.CSIRelays
}

// networkDigest hashes a finished network's simulated outputs.
func networkDigest(w io.Writer, n *core.Network) {
	fmt.Fprintf(w, "fired=%d now=%d\n", n.Eng.Fired(), n.Eng.Now())
	for _, m := range n.Media {
		fmt.Fprintf(w, "medium %s busy=%d\n", m.String(), m.BusyTime)
	}
	for _, a := range n.APs {
		fmt.Fprintf(w, "ap %+v\n", a.Stats)
	}
	for _, c := range n.Clients {
		fmt.Fprintf(w, "client %+v\n", c.Stats)
	}
	fmt.Fprintf(w, "ctl %+v\nfed %+v\n", n.CtlStats(), n.FedStats())
}

func runCorridor(spec opSpec, rc runConfig, m *meter) (*opResult, error) {
	res := &opResult{spec: spec, channels: 1, switchBand: true}
	m.begin()
	n, err := core.Build(core.MultiClientScenario(core.ModeWGTT, mobility.Following, 3, spec.speedMPH, spec.seed))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec, err)
	}
	if rc.traced {
		n.EnableMetrics()
	}
	bulk := n.AddDownlinkTCP(0, 0, nil)
	down := n.AddDownlinkUDP(1, corridorDownMbps, datagramBytes)
	up := n.AddUplinkUDP(2, corridorUpMbps, datagramBytes)
	up.Receiver.Record = true
	tap := newUDPTap(down.Receiver.FlowID, corridorDownMbps, datagramBytes, rc.traced)
	n.OnClientDownlink(1, tap.onPacket)
	n.OnSwitch = func(rec controller.SwitchRecord) {
		res.switchMS = append(res.switchMS, float64(rec.Duration)/float64(sim.Millisecond))
	}
	bulk.Sender.Start()
	down.Sender.Start()
	up.Sender.Start()
	m.setupDone()
	res.layer.buildS = m.setupS

	n.Run()
	m.simDone()

	res.simS = n.Scenario.Duration.Seconds()
	res.phaseSimS = res.simS
	res.airtime = []float64{n.Medium.Utilization()}
	res.carried = []bool{true}
	res.udp = append(res.udp, tap.flowResult(down.Sender, corridorDownMbps, res.simS, false))
	uf, dups := uplinkFlow(up, corridorUpMbps, res.simS)
	res.udp = append(res.udp, uf)
	res.uplinkDupSeqs = dups
	res.tcp = append(res.tcp, tcpFlow{
		acked: uint64(bulk.Sender.AckedSegs), frontier: bulk.Receiver.Delivered, bytes: bulk.Receiver.DeliveredBytes,
	})
	res.goodputBits = 8 * (float64((res.udp[0].distinct+res.udp[1].distinct)*datagramBytes) + float64(bulk.Receiver.DeliveredBytes))

	networkCounts(n, &res.layer)
	res.layer.dupDeliveries = tap.repeats
	res.layer.tcpRetx = bulk.Sender.Retransmits
	res.layer.tcpTimeouts = bulk.Sender.Timeouts
	res.layer.udpDelayMS = tap.delays

	h := fnv.New64a()
	networkDigest(h, n)
	fmt.Fprintf(h, "udp %+v\ntcp %+v %d %d\nswitch %v\n", res.udp, res.tcp, bulk.Sender.Retransmits, bulk.Sender.Timeouts, res.switchMS)
	res.digest = h.Sum64()
	return res, nil
}

func runCity(spec opSpec, rc runConfig, m *meter) (*opResult, error) {
	res := &opResult{spec: spec, channels: 1}
	cfg := cityConfig()
	if rc.traced {
		// The planner runs inside core.Build; this span times the same
		// call on its own.
		t := time.Now()
		if _, err := urban.BuildPlan(cfg, spec.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		res.layer.planS = time.Since(t).Seconds()
	}
	m.begin()
	n, err := core.Build(core.UrbanScenario(core.ModeWGTT, cfg, spec.seed))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec, err)
	}
	if rc.traced {
		n.EnableMetrics()
	}
	flows := make([]*core.DownUDP, len(n.Clients))
	taps := make([]*udpTap, len(n.Clients))
	for i := range n.Clients {
		flows[i] = n.AddDownlinkUDP(i, cityMbps, datagramBytes)
		taps[i] = newUDPTap(flows[i].Receiver.FlowID, cityMbps, datagramBytes, rc.traced)
		n.OnClientDownlink(i, taps[i].onPacket)
	}
	n.OnSwitch = func(rec controller.SwitchRecord) {
		res.switchMS = append(res.switchMS, float64(rec.Duration)/float64(sim.Millisecond))
	}
	for _, f := range flows {
		f.Sender.Start()
	}
	m.setupDone()
	res.layer.buildS = m.setupS

	n.Run()
	m.simDone()

	res.simS = n.Scenario.Duration.Seconds()
	res.phaseSimS = res.simS
	res.airtime = []float64{n.Medium.Utilization()}
	res.carried = []bool{true}
	var distinct uint64
	for i, f := range flows {
		res.udp = append(res.udp, taps[i].flowResult(f.Sender, cityMbps, res.simS, false))
		distinct += taps[i].distinct
		res.layer.dupDeliveries += taps[i].repeats
		res.layer.udpDelayMS = append(res.layer.udpDelayMS, taps[i].delays...)
	}
	res.goodputBits = 8 * float64(distinct*datagramBytes)
	networkCounts(n, &res.layer)

	h := fnv.New64a()
	networkDigest(h, n)
	fmt.Fprintf(h, "udp %+v\nswitch %v\n", res.udp, res.switchMS)
	res.digest = h.Sum64()
	return res, nil
}

// metroPlanSeed is the seed fleet.RunMetro hands urban.BuildMetroPlan for a
// fleet seed, so the benchmark can plan the same city on its own.
func metroPlanSeed(seed uint64) uint64 {
	return sim.NewRNG(seed).Stream("fleet/metro/seed").Uint64()
}

func runMetro(spec opSpec, rc runConfig, m *meter) (*opResult, error) {
	res := &opResult{spec: spec}
	mc := metroConfig()
	var last time.Time
	var epochMS []float64
	cfg := fleet.Config{
		Seed:        spec.seed,
		Workers:     rc.workers,
		Metro:       &mc,
		MetroEpoch:  metroEpoch,
		UDPRateMbps: metroMbps,
		Metrics:     rc.traced,
		Progress: func(done, total int) {
			now := time.Now()
			if done == 1 {
				m.setupDone()
			} else {
				epochMS = append(epochMS, float64(now.Sub(last))/float64(time.Millisecond))
			}
			last = now
		},
	}
	m.begin()
	r, err := fleet.RunMetro(cfg)
	m.simDone()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec, err)
	}
	res.simS = r.DurationS
	res.phaseSimS = r.DurationS - metroEpoch.Seconds()

	t := time.Now()
	plan, err := urban.BuildMetroPlan(mc, metroPlanSeed(spec.seed))
	if err != nil {
		return nil, fmt.Errorf("%s: plan: %w", spec, err)
	}
	res.layer.planS = time.Since(t).Seconds()
	crossings := 0
	var expected, stray float64
	for _, c := range plan.Clients {
		crossings += len(c.Visits) - 1
		n, s := metroCBRExpected(c.Visits, r.DurationS)
		expected += n
		stray += s
	}

	mo := &metroOut{
		clients:     r.Clients,
		crossings:   crossings,
		migrations:  r.Stats.Migrations,
		seamOutageS: r.Stats.SeamOutage.Seconds(),
		epochS:      r.EpochMS / 1000,
		sent:        r.Stats.Sent,
		expectSent:  expected,
		straySent:   stray,
		perClient:   r.PerClientMbps,
	}
	res.metro = mo
	res.channels = r.BuiltTiles
	for _, tr := range r.Tiles {
		res.airtime = append(res.airtime, tr.AirtimePct/100)
		res.carried = append(res.carried, tr.Bytes > 0)
		res.layer.busyS += tr.AirtimePct / 100 * r.DurationS
		res.layer.channelS += r.DurationS
	}
	res.goodputBits = 8 * float64(r.Stats.Bytes)

	lc := &res.layer
	lc.switches = r.Stats.Switches
	lc.csiReports = r.Stats.CSIReports
	lc.migrations = r.Stats.Migrations
	lc.seamOutageS = mo.seamOutageS
	lc.wireBytes = r.Stats.HandoffWireBytes
	lc.sentOverPlan = float64(mo.sent) - mo.expectSent
	lc.strayPlanned = mo.straySent
	lc.epochMS = epochMS
	if r.Metrics != nil {
		snapshotCounts(r.Metrics, lc)
		if med := r.Metrics.SwitchSummary().MedianNS; med > 0 {
			res.switchMS = []float64{float64(med) / 1e6}
		}
	}

	h := fnv.New64a()
	io.WriteString(h, r.Render())
	fmt.Fprintf(h, "%+v\n", r.Stats)
	res.digest = h.Sum64()
	return res, nil
}

// metroCBRExpected is the datagram count of one metro client's flow,
// computed from its visit schedule: the flow runs from time zero, stops
// when the client crosses a seam, and restarts at the first epoch barrier
// after the crossing (applied at min((⌊t/epoch⌋+1)·epoch, horizon)). A
// client that crosses again before that barrier stays silent until the
// barrier after its last crossing.
//
// stray is the extra the simulator sends when a client leaves a tile at
// the very barrier that admits it there: the tile's exit event has already
// fired, so the flow runs on in the tile it left for one more epoch.
func metroCBRExpected(visits []urban.Visit, horizonS float64) (n, stray float64) {
	epoch := metroEpoch.Seconds()
	barrier := func(t float64) float64 {
		return math.Min((math.Floor(t/epoch+1e-9)+1)*epoch, horizonS)
	}
	from := 0.0
	for k := 1; k <= len(visits); k++ {
		to := horizonS
		if k < len(visits) {
			to = visits[k].Enter.Seconds()
		}
		switch {
		case to > from:
			n += cbrExpected(to-from, metroMbps, datagramBytes)
		case to == from && k < len(visits):
			stray += cbrExpected(barrier(to)-from, metroMbps, datagramBytes)
		}
		if k < len(visits) {
			from = barrier(to)
		}
	}
	return n, stray
}

// snapshotCounts reads the per-layer counters of a merged metrics snapshot
// (the metro exposes its tiles only through the registry).
func snapshotCounts(s *metrics.Snapshot, lc *layerCounts) {
	for _, c := range s.Counters {
		switch {
		case c.Component == "controller" && c.Name == "selection_decisions":
			lc.selDecisions += c.Value
		case c.Component == "controller" && c.Name == "stop_retransmits":
			lc.stopRetx += c.Value
		case c.Component == "dedup" && c.Name == "hits":
			lc.upDup += c.Value
		case c.Component == "dedup" && c.Name == "misses":
			lc.upUnique += c.Value
		case c.Component == "fanout" && c.Name == "downlink_encodes":
			lc.downSent += c.Value
		case c.Component == "fanout" && c.Name == "downlink_copies":
			lc.downCopies += c.Value
		case strings.HasPrefix(c.Component, "ap") && c.Name == "down_enqueued":
			lc.downEnq += c.Value
		case strings.HasPrefix(c.Component, "ap") && c.Name == "ring_overwrites":
			lc.ringOver += c.Value
		case strings.HasPrefix(c.Component, "client") && c.Name == "downlink_dupes":
			lc.dupesSuppressed += c.Value
		}
	}
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
