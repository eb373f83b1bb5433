package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"revnf"
	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/serve"
	"revnf/internal/trace"
	"revnf/internal/wire"
)

// env is one epoch's program objects: everything setup_s times.
type env struct {
	engine *serve.Engine
	// probe and rec are the traced run's wrappers; nil when untraced.
	probe *schedProbe
	rec   *recorderProbe

	// stream, ln and conns exist for the open loop only: conns[0] speaks
	// the binary frame protocol, conns[1] NDJSON.
	stream    *serve.StreamServer
	ln        net.Listener
	conns     []net.Conn
	serveDone chan error
}

// Decision-trace settings of the chaos workload, as revnfd -trace 4096
// -trace-sample 64.
const (
	traceCapacity = 4096
	traceSample   = 64
)

// setupEnv builds the scheduler, engine, chaos injector and, for the open
// loop, the stream server with its listener and both client connections
// (the frame connection has sent its preamble). The first request may be
// sent as soon as it returns.
func setupEnv(s spec, n *core.Network, seed int64, traced bool) (x *env, err error) {
	x = &env{}
	defer func() {
		if err != nil {
			x.close()
		}
	}()
	var store *trace.Store
	var rec trace.Recorder
	if s.chaos {
		store = trace.NewStore(traceCapacity)
		rec = trace.NewSampling(store, traceSample)
	}
	if traced {
		inner := rec
		if inner == nil {
			inner = trace.Nop
		}
		x.rec = &recorderProbe{inner: inner}
		rec = x.rec
	}
	sched, err := revnf.NewScheduler(n, s.scheme,
		revnf.WithAlgorithm(revnf.PrimalDual),
		revnf.WithHorizon(window),
		revnf.WithRecorder(rec))
	if err != nil {
		return x, fmt.Errorf("build scheduler: %w", err)
	}
	if traced {
		if x.probe, err = newSchedProbe(sched); err != nil {
			return x, err
		}
		sched = x.probe
	}
	var inj *chaos.Injector
	if s.chaos {
		inj, err = chaos.New(chaos.Config{Network: n, CloudletMTTR: 4, InstanceMTTR: 2, Seed: seed})
		if err != nil {
			return x, fmt.Errorf("build chaos injector: %w", err)
		}
	}
	x.engine, err = serve.New(serve.Config{
		Network:        n,
		Scheduler:      sched,
		Horizon:        window,
		Rolling:        true,
		Workers:        s.workers,
		QueueSize:      s.queue,
		Traces:         store,
		Recorder:       rec,
		Chaos:          inj,
		RepairAttempts: 3,
	})
	if err != nil {
		return x, fmt.Errorf("build engine: %w", err)
	}
	if s.submitters > 0 {
		return x, nil
	}
	x.stream = serve.NewStreamServer(x.engine)
	if x.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return x, fmt.Errorf("listen: %w", err)
	}
	x.serveDone = make(chan error, 1)
	go func() { x.serveDone <- x.stream.Serve(x.ln) }()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", x.ln.Addr().String())
		if err != nil {
			return x, fmt.Errorf("dial: %w", err)
		}
		x.conns = append(x.conns, c)
	}
	if _, err := x.conns[0].Write(wire.AppendPreamble(nil)); err != nil {
		return x, fmt.Errorf("write preamble: %w", err)
	}
	return x, nil
}

// close stops everything setupEnv started and waits for it.
func (x *env) close() error {
	var errs []error
	for _, c := range x.conns {
		c.Close()
	}
	if x.stream != nil {
		errs = append(errs, x.stream.Close())
		if x.serveDone != nil {
			// The dials complete in the kernel backlog, so a set-up closed
			// at once can reach Close before its goroutine calls Serve;
			// Serve then returns ErrClosed and never takes the listener.
			if err := <-x.serveDone; !errors.Is(err, serve.ErrClosed) {
				errs = append(errs, err)
			}
		}
	}
	if x.ln != nil {
		x.ln.Close() // already closed unless Serve returned ErrClosed
	}
	if x.engine != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs = append(errs, x.engine.Shutdown(ctx))
	}
	return errors.Join(errs...)
}
