package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"

	"revnf/internal/core"
	"revnf/internal/serve"
	"revnf/internal/timeslot"
	"revnf/internal/wire"
)

// layerStats collects one traced epoch's per-layer measurements made by
// the benchmark around its own calls into the program.
type layerStats struct {
	// call and wait time each Submit/SubmitBatch call (ns); wait is call
	// start to the first scheduler entry of the call's first request.
	call, wait hist
	// callSum, waitSum and schedSum add up the attributed calls; reqs
	// counts their requests.
	callSum, waitSum, schedSum, reqs atomic.Int64
	tick                             hist
	expired                          atomic.Int64

	// decs samples the run's decisions for the wire codec timings.
	decMu sync.Mutex
	decs  []wire.Decision // guarded by decMu
}

// maxCodecSamples bounds the decisions kept for the codec timings.
const maxCodecSamples = poolSize

// engineCall attributes one engine call of duration d starting at t0:
// wait until the scheduler first saw the call's first request, then the
// scheduler time of every request in it. A call whose requests never
// reached the scheduler (or whose attribution slot was reused) is left
// out of the sums.
func (l *layerStats) engineCall(p *schedProbe, t0, d int64, out []serve.AdmissionResult) {
	l.call.Observe(d)
	for _, r := range out {
		l.keepDecision(wire.Decision{ID: uint64(r.ID), Slot: r.Slot,
			Admitted: r.Admitted, Reason: wire.CodeForReason(r.Reason)})
	}
	first, _, ok := p.taken(out[0].ID)
	if !ok || out[0].ID == 0 {
		return
	}
	var sched int64
	for _, r := range out {
		_, ns, ok := p.taken(r.ID)
		if !ok || r.ID == 0 {
			return
		}
		sched += ns
	}
	wait := max(first-t0, 0)
	l.wait.Observe(wait)
	l.callSum.Add(d)
	l.waitSum.Add(wait)
	l.schedSum.Add(sched)
	l.reqs.Add(int64(len(out)))
}

func (l *layerStats) keepDecision(d wire.Decision) {
	l.decMu.Lock()
	if len(l.decs) < maxCodecSamples {
		l.decs = append(l.decs, d)
	}
	l.decMu.Unlock()
}

// replayStats times the ledger and pool on the epoch's admitted
// footprints, replayed slot by slot on a private rolling ledger.
type replayStats struct {
	reserve, release, advance, acquire, poolRelease hist
	admits, assignments, refused                    int
	backups, groups                                 int
}

type footprint struct {
	id, start, end, demand int
	p                      core.Placement
	refused                bool
}

// collectFootprints reads every admitted placement back from the engine:
// its live reservation runs [ReservedFrom, end] under its current
// placement (the repaired one after a repair).
func collectFootprints(e *serve.Engine, ids []int) ([]footprint, error) {
	fps := make([]footprint, 0, len(ids))
	for _, id := range ids {
		rec, ok := e.Placement(id)
		if !ok {
			return nil, fmt.Errorf("admitted request %d has no placement record", id)
		}
		fps = append(fps, footprint{id: id, start: rec.ReservedFrom, end: rec.Request.End(),
			demand: e.Network().Catalog[rec.Request.VNF].Demand, p: rec.Placement})
	}
	sort.SliceStable(fps, func(a, b int) bool { return fps[a].start < fps[b].start })
	return fps, nil
}

// replay reserves each footprint at its start slot, releases it when the
// clock passes its end and advances the window base like the engine does
// (to the clock, pinned by the oldest live reservation). A reservation the
// private ledger refuses is counted, not forced: the replay keeps the
// engine's footprints but not its repair history.
func replay(caps []int, fps []footprint) (*replayStats, error) {
	led, err := timeslot.NewRolling(caps, window)
	if err != nil {
		return nil, err
	}
	pool := timeslot.NewPool(led)
	rs := &replayStats{}
	if len(fps) == 0 {
		return rs, nil
	}
	if err := led.Advance(fps[0].start); err != nil {
		return nil, err
	}
	endAt := map[int][]*footprint{}
	liveFrom := map[int]int{}
	groups := map[int]bool{}
	slot, oldest := fps[0].start, fps[0].start
	for i, live := 0, 0; i < len(fps) || live > 0; {
		for ; i < len(fps) && fps[i].start == slot; i++ {
			f := &fps[i]
			rs.admits++
			rs.assignments += len(f.p.Assignments)
			dur := f.end - f.start + 1
			for k, a := range f.p.Assignments {
				t0 := nanotime()
				ok, err := led.ReserveWindow(a.Cloudlet, f.start, dur, a.Units(f.demand))
				rs.reserve.Observe(nanotime() - t0)
				if err != nil {
					return nil, fmt.Errorf("replay reserve %d: %w", f.id, err)
				}
				if !ok {
					for _, r := range f.p.Assignments[:k] {
						if err := led.Release(r.Cloudlet, f.start, dur, r.Units(f.demand)); err != nil {
							return nil, err
						}
					}
					f.refused = true
					break
				}
			}
			if b := f.p.Backup; b != nil && !f.refused {
				t0 := nanotime()
				err := pool.Acquire(b.Group, b.Cloudlet, f.start, dur, f.demand)
				rs.acquire.Observe(nanotime() - t0)
				if err != nil {
					for _, r := range f.p.Assignments {
						if err := led.Release(r.Cloudlet, f.start, dur, r.Units(f.demand)); err != nil {
							return nil, err
						}
					}
					f.refused = true
				} else {
					rs.backups++
					groups[b.Group] = true
				}
			}
			if f.refused {
				rs.refused++
				continue
			}
			endAt[f.end] = append(endAt[f.end], f)
			liveFrom[f.start]++
			live++
		}
		for _, f := range endAt[slot] {
			dur := f.end - f.start + 1
			for _, a := range f.p.Assignments {
				t0 := nanotime()
				err := led.Release(a.Cloudlet, f.start, dur, a.Units(f.demand))
				rs.release.Observe(nanotime() - t0)
				if err != nil {
					return nil, fmt.Errorf("replay release %d: %w", f.id, err)
				}
			}
			if b := f.p.Backup; b != nil {
				t0 := nanotime()
				err := pool.Release(b.Group, f.start, dur)
				rs.poolRelease.Observe(nanotime() - t0)
				if err != nil {
					return nil, fmt.Errorf("replay pool release %d: %w", f.id, err)
				}
			}
			liveFrom[f.start]--
			live--
		}
		delete(endAt, slot)
		slot++
		for oldest < slot && liveFrom[oldest] == 0 {
			delete(liveFrom, oldest)
			oldest++
		}
		if base := min(slot, oldest); base > led.Base() {
			t0 := nanotime()
			err := led.Advance(base)
			rs.advance.Observe(nanotime() - t0)
			if err != nil {
				return nil, fmt.Errorf("replay advance to %d: %w", base, err)
			}
		}
	}
	rs.groups = len(groups)
	return rs, nil
}

// codecTimes times one codec on the run's exact requests and decisions:
// mean ns per encode and decode, and heap allocations per request decode.
type codecTimes struct {
	reqEncode, reqDecode, decEncode, decDecode, reqDecodeAllocs float64
}

func allocsNow() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeCodecs measures both wire codecs. Each request and decision is
// encoded to its own record, so decode sees exactly the bytes the stream
// carries, newline included.
func timeCodecs(reqs []serve.AdmissionRequest, decs []wire.Decision) (frame, ndjson codecTimes, err error) {
	wreqs := make([]wire.Request, len(reqs))
	for i, r := range reqs {
		wreqs[i] = wire.Request{VNF: r.VNF, Arrival: r.Arrival, Duration: r.Duration,
			Reliability: r.Reliability, Payment: r.Payment, Scheme: r.Scheme}
	}
	const hdr = 5 // frame header: 4-byte length + type byte
	// An encode error leaves the buffer short, which the round-trip check
	// in timeRecords reports.
	encReqFrame := func(buf []byte, r *wire.Request) []byte {
		out, _ := wire.AppendRequestFrame(buf, r)
		return out
	}
	var errs [4]error
	frame.reqEncode, frame.reqDecode, frame.reqDecodeAllocs, errs[0] = timeRecords(wreqs, encReqFrame,
		func(rec []byte, r *wire.Request) error { return wire.DecodeRequest(rec[hdr:], r) })
	ndjson.reqEncode, ndjson.reqDecode, ndjson.reqDecodeAllocs, errs[1] = timeRecords(wreqs,
		wire.AppendNDJSONRequest, wire.DecodeNDJSONRequest)
	frame.decEncode, frame.decDecode, _, errs[2] = timeRecords(decs, wire.AppendDecisionFrame,
		func(rec []byte, d *wire.Decision) error { return wire.DecodeDecision(rec[hdr:], d) })
	ndjson.decEncode, ndjson.decDecode, _, errs[3] = timeRecords(decs,
		wire.AppendNDJSONDecision, wire.DecodeNDJSONDecision)
	return frame, ndjson, errors.Join(errs[:]...)
}

// timeRecords encodes every value into one buffer (timed), then decodes
// each record back (timed, allocations counted) and checks the round trip.
func timeRecords[T comparable](vals []T, enc func([]byte, *T) []byte, dec func([]byte, *T) error) (encNs, decNs, decAllocs float64, err error) {
	if len(vals) == 0 {
		return 0, 0, 0, nil
	}
	buf := make([]byte, 0, 64*len(vals))
	ends := make([]int, len(vals))
	t0 := nanotime()
	for i := range vals {
		buf = enc(buf, &vals[i])
		ends[i] = len(buf)
	}
	encNs = float64(nanotime()-t0) / float64(len(vals))
	var v T
	a0 := allocsNow()
	t0 = nanotime()
	from := 0
	for i := range vals {
		if err := dec(buf[from:ends[i]], &v); err != nil {
			return 0, 0, 0, fmt.Errorf("codec round trip of record %d: %w", i, err)
		}
		if v != vals[i] {
			return 0, 0, 0, fmt.Errorf("codec round trip of record %d: got %+v, want %+v", i, v, vals[i])
		}
		from = ends[i]
	}
	decNs = float64(nanotime()-t0) / float64(len(vals))
	decAllocs = float64(allocsNow()-a0) / float64(len(vals))
	return encNs, decNs, decAllocs, nil
}
