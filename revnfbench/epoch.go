package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"revnf/internal/serve"
	"revnf/internal/wire"
)

// tally counts outcomes over a whole epoch (warm-up included): the
// correctness gate's side of the books.
type tally struct {
	sent, admitted, rejected, failed int
	revenue                          float64
	// frameSent and ndjsonSent split sent by stream protocol.
	frameSent, ndjsonSent int
	// admittedIDs lists every admitted request ID, for the ledger replay.
	admittedIDs []int
}

func (t *tally) add(o *tally) {
	t.sent += o.sent
	t.admitted += o.admitted
	t.rejected += o.rejected
	t.failed += o.failed
	t.revenue += o.revenue
	t.frameSent += o.frameSent
	t.ndjsonSent += o.ndjsonSent
	t.admittedIDs = append(t.admittedIDs, o.admittedIDs...)
}

// count books one decided (or failed) request.
func (t *tally) count(res serve.AdmissionResult, err error, payment float64) {
	t.sent++
	switch {
	case err != nil || isFailure(res.Reason):
		t.failed++
	case res.Admitted:
		t.admitted++
		t.revenue += payment
		t.admittedIDs = append(t.admittedIDs, res.ID)
	default:
		t.rejected++
	}
}

// isFailure reports the rejection reasons that are not decisions: the
// engine refused the request without deciding it.
func isFailure(reason string) bool {
	return reason == serve.ReasonQueueFull || reason == serve.ReasonClosed || reason == serve.ReasonCanceled
}

// epochStats is one epoch's measurement.
type epochStats struct {
	// wall, cpu and allocs cover the measured phase, which decides
	// measured requests after the warm-up.
	wall     time.Duration
	measured int
	cpu      time.Duration
	allocs   uint64
	heapPeak uint64
	// lat holds one latency (ns) per measured request.
	lat []int64
	// admitted and revenue count the measured phase only.
	admitted int
	revenue  float64
	digest   uint64
	all      tally
	layer    *layerStats
	// lags holds the open-loop generator's lateness per wake-up (ns).
	lags []int64
	// overLimit counts measured requests over latencyLimit or failed.
	overLimit int
	// scrape is the gate's /metrics scrape; scrapeDur its median render.
	scrape    scrape
	scrapeDur time.Duration
	// e2e and samples are endToEndOf and len(lat), kept by settle.
	e2e     map[string]float64
	samples int
}

// settle computes the epoch's end-to-end figures and drops its samples
// and scrape. A run keeps every epoch's stats; with their samples the
// heap would grow epoch by epoch, and heap_peak_mb with the run's length.
func (st *epochStats) settle() {
	st.e2e = endToEndOf(st)
	st.samples = len(st.lat)
	st.lat, st.lags, st.all.admittedIDs, st.layer, st.scrape = nil, nil, nil, nil, nil
}

// counters snapshots the process at a measured-phase boundary.
type counters struct {
	wall   int64
	cpu    time.Duration
	allocs uint64
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		wall:   nanotime(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: allocsNow(),
	}
}

func (st *epochStats) measure(from, to counters) {
	st.wall = time.Duration(to.wall - from.wall)
	st.cpu = to.cpu - from.cpu
	st.allocs = to.allocs - from.allocs
}

// heapSampler tracks the peak of live-plus-unswept heap objects.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const heapSamplePeriod = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-t.C:
			case <-h.stop:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// digester hashes the ordered decision stream.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) add(res serve.AdmissionResult) {
	var b [8]byte
	put := func(v int) {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		d.h.Write(b[:])
	}
	put(res.ID)
	if res.Admitted {
		put(1)
	} else {
		put(0)
	}
	d.h.Write([]byte(res.Reason))
	p := res.Placement
	put(int(p.Scheme))
	put(len(p.Assignments))
	for _, a := range p.Assignments {
		put(a.Cloudlet)
		put(a.Instances)
	}
	if p.Backup != nil {
		put(p.Backup.Group)
		put(p.Backup.Cloudlet)
		put(p.Backup.PoolSize)
	}
}

func (d *digester) sum() uint64 { return d.h.Sum64() }

// ticker advances the engine clock and gates capacity after every Tick.
type ticker struct {
	engine *serve.Engine
	layer  *layerStats
}

// advance calls Tick, timing it in the traced run.
func (t ticker) advance() {
	t0 := nanotime()
	rep := t.engine.Tick()
	if t.layer != nil {
		t.layer.tick.Observe(nanotime() - t0)
		t.layer.expired.Add(int64(rep.Expired))
	}
}

func (t ticker) tick() error {
	t.advance()
	return checkCapacity(t.engine)
}

// ticksCrossed returns how many multiples of every lie in (from, to].
func ticksCrossed(from, to, every int) int { return to/every - from/every }

// closedEpoch runs one epoch of a closed-loop workload: s.submitters
// goroutines take the next request (or batch) from a shared counter, call
// Submit or SubmitBatch, and whichever crosses a multiple of s.tickEvery
// calls Tick.
//
// The capacity check after each Tick reads the whole window through
// Engine.Cloudlets, which costs about as much as a few decisions. It runs
// with every submitter paused between calls (pause), and its wall time,
// CPU time and allocations are taken out of the measured phase, so the
// end-to-end figures measure the workload and not the check. Tick itself
// runs unpaused: contending with the other submitter is part of the
// workload.
func closedEpoch(s spec, x *env, reqs []serve.AdmissionRequest, st *epochStats) error {
	step := 1
	if s.batch > 0 {
		step = s.batch
	}
	tk := ticker{engine: x.engine, layer: st.layer}
	var (
		next  atomic.Int64
		pause sync.RWMutex
		// start, sampler and excluded are guarded by pause: written by a
		// submitter holding it shared, or by a checker holding it.
		start    *counters
		sampler  *heapSampler
		excluded counters
		wg       sync.WaitGroup
		mu       sync.Mutex // guards errs and the merge into st
		errs     []error
	)
	check := func() error {
		pause.Lock()
		defer pause.Unlock()
		c0 := readCounters()
		err := checkCapacity(x.engine)
		if start != nil {
			c1 := readCounters()
			excluded.wall += c1.wall - c0.wall
			excluded.cpu += c1.cpu - c0.cpu
			excluded.allocs += c1.allocs - c0.allocs
		}
		return err
	}
	var dig *digester
	if s.digest {
		dig = newDigester()
	}
	for g := 0; g < s.submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local tally
			lat := make([]int64, 0, (s.epoch-s.warm)/s.submitters+2*step)
			var admitted int
			var revenue float64
			in := make([]serve.AdmissionRequest, step)
			out := make([]serve.AdmissionResult, step)
			err := func() error {
				for {
					i := int(next.Add(int64(step))) - step
					if i >= s.epoch {
						return nil
					}
					n := min(step, s.epoch-i)
					for k := 0; k < n; k++ {
						in[k] = reqs[(i+k)%len(reqs)]
					}
					pause.RLock()
					if i <= s.warm && s.warm < i+n {
						c := readCounters()
						start = &c
						sampler = startHeapSampler()
					}
					var callErr error
					t0 := nanotime()
					if s.batch > 0 {
						callErr = x.engine.SubmitBatch(context.Background(), in[:n], out[:n])
					} else {
						out[0], callErr = x.engine.Submit(context.Background(), in[0])
					}
					d := nanotime() - t0
					pause.RUnlock()
					if st.layer != nil {
						st.layer.engineCall(x.probe, t0, d, out[:n])
					}
					for k := 0; k < n; k++ {
						local.count(out[k], callErr, in[k].Payment)
						if dig != nil {
							dig.add(out[k])
						}
						if i+k >= s.warm {
							lat = append(lat, d)
							if callErr == nil && out[k].Admitted {
								admitted++
								revenue += in[k].Payment
							}
						}
					}
					for c := ticksCrossed(i, i+n, s.tickEvery); c > 0; c-- {
						tk.advance()
						if err := check(); err != nil {
							return err
						}
					}
				}
			}()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
			}
			st.all.add(&local)
			st.lat = append(st.lat, lat...)
			st.admitted += admitted
			st.revenue += revenue
		}()
	}
	wg.Wait()
	if start == nil {
		return errors.New("epoch never left its warm-up")
	}
	end := readCounters()
	st.heapPeak = sampler.Stop()
	end.wall -= excluded.wall
	end.cpu -= excluded.cpu
	end.allocs -= excluded.allocs
	st.measure(*start, end)
	st.measured = s.epoch - s.warm
	if dig != nil {
		st.digest = dig.sum()
	}
	return errors.Join(errs...)
}

// checkCapacity fails when any cloudlet uses more than its capacity at
// any live slot.
func checkCapacity(e *serve.Engine) error {
	for _, cl := range e.Cloudlets() {
		for k, r := range cl.Residual {
			if r < 0 {
				return fmt.Errorf("cloudlet %d over capacity at slot %d: residual %d", cl.ID, cl.FromSlot+k, r)
			}
		}
	}
	return nil
}

// openEpoch runs one epoch of the open loop: two stream connections (one
// binary frame, one NDJSON) each offered half of s.rate on the burst
// schedule; the reader that decodes every s.tickEvery-th decision calls
// Tick.
func openEpoch(s spec, x *env, reqs []serve.AdmissionRequest, st *epochStats) error {
	const conns = 2
	per := s.epoch / conns
	warm := s.warm / conns
	perTick := int(s.rate / conns * tickPeriod.Seconds())
	tk := ticker{engine: x.engine, layer: st.layer}
	var (
		decided atomic.Int64
		mu      sync.Mutex // guards tickErr
		tickErr error
		wg      sync.WaitGroup
	)
	start := nanotime()
	clients := make([]*streamClient, conns)
	lat := make([][]int64, conns)
	tallies := make([]tally, conns)
	admitted := make([]int, conns)
	revenue := make([]float64, conns)
	for c := range clients {
		lat[c] = make([]int64, per)
		sub := make([]serve.AdmissionRequest, per)
		for k := range sub {
			sub[k] = reqs[(c*per+k)%len(reqs)]
		}
		cl := &streamClient{conn: x.conns[c], frame: c == 0, reqs: sub,
			start: start, perTick: perTick, window: streamWindow}
		t := &tallies[c]
		l := lat[c]
		cl.onDecision = func(k int, d *wire.Decision, now int64) {
			l[k] = now - cl.due(k)
			t.count(serve.AdmissionResult{ID: int(d.ID), Admitted: d.Admitted,
				Reason: d.Reason.Reason(), Slot: d.Slot}, nil, sub[k].Payment)
			if k >= warm && d.Admitted {
				admitted[c]++
				revenue[c] += sub[k].Payment
			}
			if st.layer != nil {
				st.layer.keepDecision(*d)
			}
			if decided.Add(1)%int64(s.tickEvery) == 0 {
				if err := tk.tick(); err != nil {
					mu.Lock()
					tickErr = errors.Join(tickErr, err)
					mu.Unlock()
				}
			}
		}
		clients[c] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run()
		}()
	}
	if wait := clients[0].due(warm) - nanotime(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
	from := readCounters()
	sampler := startHeapSampler()
	wg.Wait()
	to := readCounters()
	st.heapPeak = sampler.Stop()
	st.measure(from, to)
	var errs []error
	for c, cl := range clients {
		t := &tallies[c]
		missing := per - cl.received
		t.sent += missing
		t.failed += missing
		if c == 0 {
			t.frameSent = cl.sent
		} else {
			t.ndjsonSent = cl.sent
		}
		if cl.failure != nil {
			errs = append(errs, fmt.Errorf("stream connection %d: %w", c, cl.failure))
		}
		st.all.add(t)
		st.admitted += admitted[c]
		st.revenue += revenue[c]
		st.lags = append(st.lags, cl.lags...)
		for k := warm; k < per; k++ {
			if k >= cl.received {
				st.overLimit++
				continue
			}
			st.lat = append(st.lat, lat[c][k])
			if lat[c][k] > int64(latencyLimit) {
				st.overLimit++
			}
		}
	}
	st.measured = conns * (per - warm)
	return errors.Join(append(errs, tickErr)...)
}
