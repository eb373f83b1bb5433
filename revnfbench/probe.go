package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"revnf/internal/core"
	"revnf/internal/trace"
)

// The traced run measures the program from outside: the wrappers below
// sit between the engine and the scheduler, view and recorder it was
// given, time each call with the monotonic clock, and forward it
// unchanged. None of them alters an argument or a result, which the
// decision digest (equal traced and untraced) checks.

// epoch0 anchors the wrappers' monotonic timestamps.
var epoch0 = time.Now()

func nanotime() int64 { return int64(time.Since(epoch0)) }

// twoPhase is every interface the engine probes a scheduler for. The three
// schedulers the workloads run implement all of it, so one wrapper type
// makes the engine pick the same mode wrapped and unwrapped.
type twoPhase interface {
	core.TwoPhaseScheduler
	core.WindowAdvancer
	core.LambdaReader
}

// reqSlots is the per-request-ID attribution ring: the first scheduler
// entry and the summed scheduler time of each decision, read back by the
// submitter after its call returns. IDs more than len apart share a slot;
// the stored ID tells a reader whether the slot is still its own.
const reqSlots = 1 << 16

type reqSlot struct {
	id      atomic.Int64
	first   atomic.Int64
	schedNs atomic.Int64
}

// schedProbe wraps a scheduler and times Decide, Propose, Commit, Abort
// and AdvanceWindow, split by outcome where the ROADMAP asks for it.
type schedProbe struct {
	inner twoPhase
	// cv wraps the engine's view; the engine passes the same ledger on
	// every call, so one wrapper is built once and reused.
	cv    atomic.Pointer[countingView]
	reads atomic.Uint64

	decideAdmit, decideReject   hist
	proposeAdmit, proposeReject hist
	commit, advance             hist
	aborts                      atomic.Uint64

	slots [reqSlots]reqSlot
}

func newSchedProbe(s core.Scheduler) (*schedProbe, error) {
	tp, ok := s.(twoPhase)
	if !ok {
		return nil, fmt.Errorf("scheduler %s lacks the two-phase, window or lambda interface", s.Name())
	}
	return &schedProbe{inner: tp}, nil
}

func (p *schedProbe) Name() string            { return p.inner.Name() }
func (p *schedProbe) Scheme() core.Scheme     { return p.inner.Scheme() }
func (p *schedProbe) ConcurrentPropose() bool { return p.inner.ConcurrentPropose() }
func (p *schedProbe) Lambda(cloudlet, slot int) float64 {
	return p.inner.Lambda(cloudlet, slot)
}

// attribute charges d ns of scheduler time, entered at start, to id.
func (p *schedProbe) attribute(id int, start, d int64) {
	s := &p.slots[id&(reqSlots-1)]
	if s.id.Load() != int64(id) {
		s.id.Store(int64(id))
		s.first.Store(start)
		s.schedNs.Store(0)
	}
	s.schedNs.Add(d)
}

// taken returns the first-entry time and scheduler ns charged to id, or
// false when id never reached the scheduler (or its slot was reused).
func (p *schedProbe) taken(id int) (first, schedNs int64, ok bool) {
	s := &p.slots[id&(reqSlots-1)]
	if s.id.Load() != int64(id) {
		return 0, 0, false
	}
	return s.first.Load(), s.schedNs.Load(), true
}

func (p *schedProbe) Decide(req core.Request, view core.CapacityView) (core.Placement, bool) {
	t0 := nanotime()
	pl, ok := p.inner.Decide(req, p.wrap(view))
	d := nanotime() - t0
	if ok {
		p.decideAdmit.Observe(d)
	} else {
		p.decideReject.Observe(d)
	}
	p.attribute(req.ID, t0, d)
	return pl, ok
}

func (p *schedProbe) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	t0 := nanotime()
	pl, ok := p.inner.Propose(req, p.wrap(view))
	d := nanotime() - t0
	if ok {
		p.proposeAdmit.Observe(d)
	} else {
		p.proposeReject.Observe(d)
	}
	p.attribute(req.ID, t0, d)
	return pl, ok
}

func (p *schedProbe) Commit(req core.Request, pl core.Placement) {
	t0 := nanotime()
	p.inner.Commit(req, pl)
	d := nanotime() - t0
	p.commit.Observe(d)
	p.attribute(req.ID, t0, d)
}

func (p *schedProbe) Abort(req core.Request, pl core.Placement) {
	t0 := nanotime()
	p.inner.Abort(req, pl)
	p.aborts.Add(1)
	p.attribute(req.ID, t0, nanotime()-t0)
}

func (p *schedProbe) AdvanceWindow(base int) {
	t0 := nanotime()
	p.inner.AdvanceWindow(base)
	p.advance.Observe(nanotime() - t0)
}

// calls counts Decide and Propose calls, the denominator of view reads.
func (p *schedProbe) calls() uint64 {
	return p.decideAdmit.Count() + p.decideReject.Count() + p.proposeAdmit.Count() + p.proposeReject.Count()
}

// wrap returns the counting wrapper around view.
func (p *schedProbe) wrap(view core.CapacityView) core.CapacityView {
	if cv := p.cv.Load(); cv != nil && cv.inner == view {
		return cv
	}
	cv := &countingView{inner: view, reads: &p.reads}
	p.cv.Store(cv)
	return cv
}

// countingView counts core.CapacityView reads and forwards them.
type countingView struct {
	inner core.CapacityView
	reads *atomic.Uint64
}

func (v *countingView) Capacity(cloudlet int) int {
	v.reads.Add(1)
	return v.inner.Capacity(cloudlet)
}

func (v *countingView) Residual(cloudlet, slot int) int {
	v.reads.Add(1)
	return v.inner.Residual(cloudlet, slot)
}

func (v *countingView) ResidualWindow(cloudlet, start, duration int) int {
	v.reads.Add(1)
	return v.inner.ResidualWindow(cloudlet, start, duration)
}

// recorderProbe wraps the trace.Recorder handed to both the engine and the
// scheduler: it counts Sample calls and times Record.
type recorderProbe struct {
	inner   trace.Recorder
	samples atomic.Uint64
	record  hist
}

func (r *recorderProbe) Sample(id int) bool {
	r.samples.Add(1)
	return r.inner.Sample(id)
}

func (r *recorderProbe) Record(t *trace.DecisionTrace) {
	t0 := nanotime()
	r.inner.Record(t)
	r.record.Observe(nanotime() - t0)
}
