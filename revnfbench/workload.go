package main

import (
	"fmt"
	"math/rand"
	"time"

	"revnf/internal/core"
	"revnf/internal/experiments"
	"revnf/internal/serve"
	"revnf/internal/topology"
	"revnf/internal/workload"
)

// spec is one workload: a traffic mix and the program configuration it
// drives. Why each exists is in README.md.
type spec struct {
	name   string
	scheme core.Scheme
	// reqMin and reqMax bound the generated reliability requirements.
	reqMin, reqMax float64
	// workers is serve.Config.Workers.
	workers int
	// queue is serve.Config.QueueSize (0: the default 256). The sharded
	// SubmitBatch counts a whole stream batch, up to 256 requests, against
	// it, so two connections need room for two full batches or a burst is
	// refused as queue-full.
	queue int
	// submitters is the number of closed-loop goroutines; 0 selects the
	// open loop over the stream server.
	submitters int
	// batch > 0 submits through Engine.SubmitBatch in batches of this size.
	batch int
	// tickEvery is the number of decided requests between Tick calls.
	tickEvery int
	// chaos turns on the failure runtime (and the decision-trace store
	// sampling 1 in 64, as in revnfd -trace 4096 -trace-sample 64).
	chaos bool
	// rate is the open loop's total offered rate in requests per second.
	rate float64
	// epoch is the number of requests each fresh engine decides; warm is
	// the untimed prefix of it.
	epoch, warm int
	// digest marks a deterministic workload whose decision stream is
	// hashed and compared across epochs, runs and the traced run.
	digest bool
}

// Workload constants shared by every spec.
const (
	// window is the rolling horizon W in slots.
	window = 60
	// poolSize is the number of distinct generated requests; a run cycles
	// through them, so the engine state, not the input, keeps changing.
	poolSize = 1 << 16
	// netSeed fixes the cloudlet fleet: the fleet is part of the workload
	// definition, and --seed varies the traffic over it.
	netSeed = 1
	// tickPeriod is the open-loop generator's schedule granularity: every
	// tickPeriod one burst of requests falls due.
	tickPeriod = 5 * time.Millisecond
	// latencyLimit is stream-overload's p99 latency limit; a request that
	// fails or misses it counts against loadgen.limit_miss_ratio.
	latencyLimit = 5 * time.Millisecond
	// streamWindow caps requests in flight per stream connection.
	streamWindow = 1 << 14
)

var specs = []spec{
	{name: "onsite-serial", scheme: core.OnSite, reqMin: 0.90, reqMax: 0.95,
		workers: 1, submitters: 1, tickEvery: 50, epoch: 100_000, warm: 5_000, digest: true},
	{name: "stream-overload", scheme: core.OnSite, reqMin: 0.90, reqMax: 0.95,
		workers: 2, queue: 512, tickEvery: 1000, rate: 20_000, epoch: 40_000, warm: 10_000},
	{name: "offsite-chaos", scheme: core.OffSite, reqMin: 0.97, reqMax: 0.99,
		workers: 2, submitters: 2, tickEvery: 50, chaos: true, epoch: 100_000, warm: 5_000},
	{name: "shared-batch", scheme: core.Shared, reqMin: 0.97, reqMax: 0.99,
		workers: 1, submitters: 1, batch: 32, tickEvery: 50, epoch: 60_000, warm: 5_000, digest: true},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// buildNetwork returns the GEANT fleet every workload serves: 16 cloudlets
// of capacity 40–80, the default VNF catalog.
func buildNetwork(s spec) (*core.Network, error) {
	setup := experiments.DefaultSetup()
	setup.Topology = topology.GEANT
	setup.Cloudlets = 16
	setup.CapMin, setup.CapMax = 40, 80
	setup.Horizon = window
	setup.ReqMin, setup.ReqMax = s.reqMin, s.reqMax
	inst, err := setup.Instance(1, setup.H, setup.K, netSeed)
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	return inst.Network, nil
}

// generate draws the request pool from seed with the Section VI-A model
// (durations 1–10, payment rate uniform over [pr_max/H, pr_max] with
// pr_max 10 and H 10, pay = rate·d·demand·R). Every request arrives "now"
// (Arrival 0): the engine stamps the current slot.
func generate(s spec, n *core.Network, seed int64, count int) ([]serve.AdmissionRequest, error) {
	cfg := workload.TraceConfig{
		Requests:       count,
		Horizon:        window,
		MinDuration:    1,
		MaxDuration:    10,
		MinRequirement: s.reqMin,
		MaxRequirement: s.reqMax,
		MaxPaymentRate: 10,
		H:              10,
	}
	trace, err := workload.GenerateTrace(cfg, n.Catalog, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("generate requests: %w", err)
	}
	out := make([]serve.AdmissionRequest, len(trace))
	for i, r := range trace {
		out[i] = serve.AdmissionRequest{VNF: r.VNF, Reliability: r.Reliability,
			Duration: r.Duration, Payment: r.Payment}
	}
	return out, nil
}
