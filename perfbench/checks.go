package main

import (
	"errors"
	"fmt"
	"math"
)

// Correctness checks run on every operation of every run. Each compares an
// output with a quantity the benchmark computes on its own, or with a
// property the method must have. An operation that breaks one counts as
// failed.

// channelCapMbps is the MAC-layer ceiling of one 802.11n channel at MCS7
// HT20, one spatial stream.
const channelCapMbps = 65

// switchBandMS is the paper's Table 1 switch execution time, 17 ± 5 ms
// (DESIGN.md §10).
var switchBandMS = [2]float64{12, 22}

type check struct {
	name string
	fn   func(r *opResult) error
}

var checks = []check{
	{"cbr_sent", checkCBRSent},
	{"udp_seq_range", checkUDPSeqRange},
	{"uplink_dedup", checkUplinkDedup},
	{"tcp_acks", checkTCPAcks},
	{"udp_goodput_le_offered", checkUDPGoodput},
	{"channel_capacity", checkChannelCap},
	{"airtime_range", checkAirtime},
	{"switch_time_band", checkSwitchBand},
	{"metro_migrations", checkMetroMigrations},
}

// runChecks returns the first failed check's error, naming the check.
func runChecks(r *opResult) error {
	for _, c := range checks {
		if err := c.fn(r); err != nil {
			return fmt.Errorf("%s: check %s: %w", r.spec, c.name, err)
		}
	}
	return nil
}

// cbrExpected is the datagram count of a CBR sender running for horizon
// seconds from time zero: one at t=0, then one every 8B/R.
func cbrExpected(horizonS, rateMbps float64, bytes int) float64 {
	return math.Floor(horizonS*rateMbps*1e6/float64(8*bytes)) + 1
}

// checkCBRSent: every CBR flow sends ⌊T·R/(8B)⌋+1 datagrams within ±1. On
// the metro, whose flows pause from a seam crossing to the next epoch
// barrier, the total is within one datagram per client plus one per
// migration of the count the benchmark derives from its own plan's
// crossings, with those seam-outage gaps subtracted. The known stray
// epochs metroCBRExpected counts separately may come on top.
func checkCBRSent(r *opResult) error {
	for i, f := range r.udp {
		want := cbrExpected(f.horizon, f.rateMbps, f.bytes)
		if math.Abs(float64(f.sent)-want) > 1 {
			return fmt.Errorf("flow %d sent %d datagrams, want %.0f ± 1", i, f.sent, want)
		}
	}
	if m := r.metro; m != nil {
		tol := float64(m.clients) + float64(m.migrations)
		got := float64(m.sent)
		if got < m.expectSent-tol || got > m.expectSent+m.straySent+tol {
			return fmt.Errorf("metro sent %d datagrams, want %.0f (+ up to %.0f stray) ± %.0f", m.sent, m.expectSent, m.straySent, tol)
		}
	}
	return nil
}

// checkUDPSeqRange: distinct delivered sequence numbers never exceed the
// count sent, and every delivered sequence number is below that count.
func checkUDPSeqRange(r *opResult) error {
	for i, f := range r.udp {
		if f.distinct > f.sent {
			return fmt.Errorf("flow %d delivered %d distinct datagrams of %d sent", i, f.distinct, f.sent)
		}
		if f.maxSeq >= int64(f.sent) {
			return fmt.Errorf("flow %d delivered sequence number %d, only %d sent", i, f.maxSeq, f.sent)
		}
	}
	return nil
}

// checkUplinkDedup: the server sees no uplink sequence number twice
// (§3.2.3 de-duplication at the controller).
func checkUplinkDedup(r *opResult) error {
	if r.uplinkDupSeqs > 0 {
		return fmt.Errorf("server saw %d duplicate uplink sequence numbers", r.uplinkDupSeqs)
	}
	return nil
}

// checkTCPAcks: the sender never sees more segments acknowledged than the
// receiver holds in order.
func checkTCPAcks(r *opResult) error {
	for i, f := range r.tcp {
		if f.acked > f.frontier {
			return fmt.Errorf("tcp flow %d: %d segments acked, receiver frontier %d", i, f.acked, f.frontier)
		}
	}
	return nil
}

// checkUDPGoodput: no UDP flow delivers more than its offered rate (plus
// the datagram sent at t=0).
func checkUDPGoodput(r *opResult) error {
	for i, f := range r.udp {
		got := float64(f.distinct*uint64(f.bytes)) * 8 / 1e6 / f.horizon
		limit := f.rateMbps + float64(8*f.bytes)/1e6/f.horizon
		if got > limit*(1+1e-9) {
			return fmt.Errorf("flow %d goodput %.4f Mb/s exceeds offered %.4f Mb/s", i, got, f.rateMbps)
		}
	}
	if m := r.metro; m != nil {
		limit := (metroMbps + float64(8*datagramBytes)/1e6/r.simS) * (1 + 1e-9)
		for c, mbps := range m.perClient {
			if mbps > limit {
				return fmt.Errorf("metro client %d goodput %.4f Mb/s exceeds offered %d Mb/s", c, mbps, metroMbps)
			}
		}
	}
	return nil
}

// checkChannelCap: total goodput stays under 65 Mb/s per channel.
func checkChannelCap(r *opResult) error {
	if r.channels < 1 {
		return errors.New("no channel")
	}
	got := r.goodputBits / 1e6 / r.simS
	if got > channelCapMbps*float64(r.channels) {
		return fmt.Errorf("goodput %.2f Mb/s over %d channel(s) exceeds %d Mb/s each", got, r.channels, channelCapMbps)
	}
	return nil
}

// checkAirtime: every channel's busy fraction lies in [0, 1], and in
// (0, 1] on every channel that delivered traffic. A metro tile no client
// was ever active in is idle, and reads 0.
func checkAirtime(r *opResult) error {
	if len(r.airtime) == 0 || len(r.carried) != len(r.airtime) {
		return errors.New("no airtime reported")
	}
	active := 0
	for i, a := range r.airtime {
		if !(a >= 0 && a <= 1) || (r.carried[i] && a == 0) {
			return fmt.Errorf("channel %d (delivered traffic: %v) airtime fraction %g outside (0, 1]", i, r.carried[i], a)
		}
		if r.carried[i] {
			active++
		}
	}
	if active == 0 {
		return errors.New("no channel delivered traffic")
	}
	return nil
}

// checkSwitchBand: on the corridor, the median switch execution time lies
// in the paper's Table 1 band.
func checkSwitchBand(r *opResult) error {
	if !r.switchBand {
		return nil
	}
	if len(r.switchMS) == 0 {
		return errors.New("no switch completed")
	}
	med := quantile(sortedCopy(r.switchMS), 0.5)
	if med < switchBandMS[0] || med > switchBandMS[1] {
		return fmt.Errorf("median switch %.2f ms outside [%g, %g] ms", med, switchBandMS[0], switchBandMS[1])
	}
	return nil
}

// checkMetroMigrations: the metro migrates exactly at the seam crossings
// the benchmark counts from its own plan, and each migration waits at most
// one epoch for its barrier.
func checkMetroMigrations(r *opResult) error {
	m := r.metro
	if m == nil {
		return nil
	}
	if m.migrations != uint64(m.crossings) {
		return fmt.Errorf("%d migrations for %d planned seam crossings", m.migrations, m.crossings)
	}
	if m.seamOutageS > float64(m.migrations)*m.epochS+1e-9 {
		return fmt.Errorf("seam outage %.3f s exceeds %d migrations × %.3f s epoch", m.seamOutageS, m.migrations, m.epochS)
	}
	return nil
}

// quantile of an ascending slice, linear between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}
