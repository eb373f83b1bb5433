package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"revnf"
	"revnf/internal/core"
	"revnf/internal/serve"
	"revnf/internal/wire"
)

func mustSpec(t *testing.T, name string) spec {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateSameSeedSameBytes(t *testing.T) {
	for _, s := range specs {
		n, err := buildNetwork(s)
		if err != nil {
			t.Fatal(err)
		}
		encode := func(seed int64) []byte {
			reqs, err := generate(s, n, seed, 4096)
			if err != nil {
				t.Fatal(err)
			}
			var buf []byte
			for i := range reqs {
				r := &reqs[i]
				if buf, err = wire.AppendRequestFrame(buf, &wire.Request{VNF: r.VNF, Arrival: r.Arrival,
					Duration: r.Duration, Reliability: r.Reliability, Payment: r.Payment}); err != nil {
					t.Fatal(err)
				}
			}
			return buf
		}
		if a, b := encode(7), encode(7); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different requests", s.name)
		}
		if a, b := encode(7), encode(8); bytes.Equal(a, b) {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", s.name)
		}
	}
}

// TestOpenLoopOneInFlight drives both stream protocols with a window of
// one request: the writer must flush before it waits for the window, or
// the request that would free it is never sent.
func TestOpenLoopOneInFlight(t *testing.T) {
	s := mustSpec(t, "stream-overload")
	n, err := buildNetwork(s)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := generate(s, n, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	x, err := setupEnv(s, n, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer x.close()
	for c, conn := range x.conns {
		cl := &streamClient{conn: conn, frame: c == 0, reqs: reqs, start: nanotime(),
			perTick: 50, window: 1, onDecision: func(int, *wire.Decision, int64) {}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			cl.run()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("connection %d: client stuck with one request in flight", c)
		}
		if cl.failure != nil || cl.received != len(reqs) {
			t.Errorf("connection %d: received %d of %d, failure %v", c, cl.received, len(reqs), cl.failure)
		}
	}
}

// TestStreamEnvCloseAtOnce checks a stream set-up closed straight away
// tears down cleanly, as the repeated set-ups of an epoch do, including
// when Close wins the race with the goroutine that calls Serve.
func TestStreamEnvCloseAtOnce(t *testing.T) {
	s := mustSpec(t, "stream-overload")
	n, err := buildNetwork(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x, err := setupEnv(s, n, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.close(); err != nil {
			t.Fatalf("set-up %d: close: %v", i, err)
		}
	}
}

// TestProbeKeepsEngineMode checks the scheduler wrapper exposes the
// interfaces the engine probes for, so the engine picks the same mode
// wrapped and unwrapped.
func TestProbeKeepsEngineMode(t *testing.T) {
	for _, s := range specs {
		n, err := buildNetwork(s)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := revnf.NewScheduler(n, s.scheme, revnf.WithHorizon(window))
		if err != nil {
			t.Fatal(err)
		}
		p, err := newSchedProbe(sched)
		if err != nil {
			t.Fatal(err)
		}
		var wrapped core.Scheduler = p
		if _, ok := wrapped.(core.WindowAdvancer); !ok {
			t.Errorf("%s: probe hides core.WindowAdvancer", s.name)
		}
		if _, ok := wrapped.(core.LambdaReader); !ok {
			t.Errorf("%s: probe hides core.LambdaReader", s.name)
		}
		tp, ok := wrapped.(core.TwoPhaseScheduler)
		if !ok || tp.ConcurrentPropose() != sched.(core.TwoPhaseScheduler).ConcurrentPropose() {
			t.Errorf("%s: probe changes ConcurrentPropose", s.name)
		}
		workers := func(sc core.Scheduler) int {
			e, err := serve.New(serve.Config{Network: n, Scheduler: sc, Horizon: window, Rolling: true, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Shutdown(context.Background())
			return e.Workers()
		}
		if a, b := workers(sched), workers(p); a != b {
			t.Errorf("%s: engine runs %d workers unwrapped, %d wrapped", s.name, a, b)
		}
	}
}

// TestDigestTracedEqualsUntraced runs short epochs of the deterministic
// workloads and checks the decision digest repeats and that the traced
// run's wrappers change no decision.
func TestDigestTracedEqualsUntraced(t *testing.T) {
	for _, name := range []string{"onsite-serial", "shared-batch"} {
		s := mustSpec(t, name)
		s.epoch, s.warm = 4000, 1000
		r, err := newRunner(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true, false, true} {
			if err := r.epoch(traced); err != nil {
				t.Fatal(err)
			}
		}
		if len(r.violations) > 0 {
			t.Fatalf("%s: %v", name, r.violations)
		}
		want := r.untraced[0].digest
		for _, st := range append(r.untraced, r.traced...) {
			if st.digest != want {
				t.Errorf("%s: digest %x, want %x", name, st.digest, want)
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNamesMatchBenchmarkJSON checks every printed metric and
// workload name against BENCHMARK.json and the name charset.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics printed, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			if m.name != want[i].Name || m.unit != want[i].Unit {
				t.Errorf("%s %d: printed %s [%s], BENCHMARK.json has %s [%s]", kind, i, m.name, m.unit, want[i].Name, want[i].Unit)
			}
			if !nameRE.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.name)
			}
			seen[m.name] = true
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(specs), len(bench.Workloads))
	}
	for i, s := range specs {
		if s.name != bench.Workloads[i].Name || !nameRE.MatchString(s.name) {
			t.Errorf("workload %d: %q vs BENCHMARK.json %q", i, s.name, bench.Workloads[i].Name)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.Quantile(q); got < want*0.97 || got > want*1.03 {
			t.Errorf("q%v = %v, want %v ± 3%%", q, got, want)
		}
	}
	for v := int64(0); v < 1<<20; v = v*5/4 + 1 {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("%d outside its bucket [%v, %v)", v, lo, hi)
		}
	}
}
