package main

import (
	"fmt"
	"os"
)

// perLayer are the metrics a run prints with --trace 1. Every name is
// printed for every workload; a layer a workload does not exercise reads
// 0 there (README.md lists which workloads move which metric).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	for _, codec := range []string{"frame", "ndjson"} {
		p := "wire." + codec + "."
		add("ns", p+"req_encode_ns", p+"req_decode_ns", p+"dec_encode_ns", p+"dec_decode_ns")
		add("count", p+"req_decode_allocs")
	}
	add("count", "serve.stream.batch_size_mean")
	add("us", "serve.stream.hold_us_p50", "serve.stream.hold_us_p99")
	add("count", "serve.stream.errors")
	add("us", "serve.engine.call_us_p50", "serve.engine.call_us_p99", "serve.engine.wait_us_p50")
	add("ns", "serve.engine.self_ns_per_req")
	add("us", "serve.engine.tick_us_p50", "serve.engine.tick_us_p99")
	add("count", "serve.engine.expired_per_tick", "serve.engine.conflict_retries_per_kreq")
	for _, s := range schedModules {
		p := s + "."
		for _, call := range []string{"decide", "propose"} {
			for _, outcome := range []string{"admit", "reject"} {
				add("ns", p+call+"_ns_"+outcome+"_p50", p+call+"_ns_"+outcome+"_p99")
			}
		}
		add("ns", p+"commit_ns_p50")
		add("count", p+"abort_per_kreq", p+"view_reads_per_call")
		add("us", p+"advance_us")
	}
	add("ns", "timeslot.reserve_ns", "timeslot.release_ns")
	add("us", "timeslot.advance_us")
	add("count", "timeslot.assignments_per_admit")
	add("ns", "timeslot.pool.acquire_ns", "timeslot.pool.release_ns")
	add("count", "timeslot.pool.members_per_group")
	add("count", "trace.sample_calls_per_req")
	add("ns", "trace.record_ns")
	add("count", "trace.records_per_kreq")
	add("count", "repair.repairs_per_ktick")
	add("ratio", "repair.success_ratio")
	add("count", "repair.degraded")
	add("ratio", "slo.met_ratio")
	add("us", "metrics.scrape_us")
	add("us", "loadgen.lag_p99_us", "loadgen.lag_max_us")
	add("ratio", "loadgen.limit_miss_ratio")
	add("ratio", "bench.trace_overhead", "bench.unattributed_share", "bench.failed_ratio")
	add("us", "bench.latency_p90_us", "bench.latency_p99_us")
	return out
}

// schedModules are the scheduler packages the workloads run, named by
// their scheme flag.
var schedModules = []string{"onsite", "offsite", "shared"}

// layerMetrics computes one traced epoch's per-layer metrics. It must run
// after gate (which scrapes /metrics) and before the env is closed.
func (r *runner) layerMetrics(x *env, st *epochStats) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	l, p, rec := st.layer, x.probe, x.rec
	sent := float64(st.all.sent)
	kreq := sent / 1000

	frame, ndjson, err := timeCodecs(r.reqs, l.decs)
	if err != nil {
		return m, err
	}
	for codec, t := range map[string]codecTimes{"frame": frame, "ndjson": ndjson} {
		pre := "wire." + codec + "."
		m[pre+"req_encode_ns"] = t.reqEncode
		m[pre+"req_decode_ns"] = t.reqDecode
		m[pre+"dec_encode_ns"] = t.decEncode
		m[pre+"dec_decode_ns"] = t.decDecode
		m[pre+"req_decode_allocs"] = t.reqDecodeAllocs
	}

	sc := st.scrape
	if n := sc["revnfd_ingest_batch_size_count"]; n > 0 {
		m["serve.stream.batch_size_mean"] = sc["revnfd_ingest_batch_size_sum"] / n
	}
	m["serve.stream.hold_us_p50"] = sc.histQuantile("revnfd_admission_latency_seconds", 0.5) * 1e6
	m["serve.stream.hold_us_p99"] = sc.histQuantile("revnfd_admission_latency_seconds", 0.99) * 1e6
	m["serve.stream.errors"] = sc["revnfd_stream_errors_total"]

	if l.call.Count() > 0 {
		m["serve.engine.call_us_p50"] = l.call.Quantile(0.5) / 1e3
		m["serve.engine.call_us_p99"] = l.call.Quantile(0.99) / 1e3
		m["serve.engine.wait_us_p50"] = l.wait.Quantile(0.5) / 1e3
	}
	if n := l.reqs.Load(); n > 0 {
		m["serve.engine.self_ns_per_req"] = float64(l.callSum.Load()-l.waitSum.Load()-l.schedSum.Load()) / float64(n)
	}
	m["serve.engine.tick_us_p50"] = l.tick.Quantile(0.5) / 1e3
	m["serve.engine.tick_us_p99"] = l.tick.Quantile(0.99) / 1e3
	if n := l.tick.Count(); n > 0 {
		m["serve.engine.expired_per_tick"] = float64(l.expired.Load()) / float64(n)
	}
	stats := x.engine.Stats()
	m["serve.engine.conflict_retries_per_kreq"] = float64(stats.ConflictRetries) / kreq

	pre := r.s.scheme.Flag() + "."
	for name, h := range map[string]*hist{
		"decide_ns_admit": &p.decideAdmit, "decide_ns_reject": &p.decideReject,
		"propose_ns_admit": &p.proposeAdmit, "propose_ns_reject": &p.proposeReject,
	} {
		m[pre+name+"_p50"] = h.Quantile(0.5)
		m[pre+name+"_p99"] = h.Quantile(0.99)
	}
	m[pre+"commit_ns_p50"] = p.commit.Quantile(0.5)
	m[pre+"abort_per_kreq"] = float64(p.aborts.Load()) / kreq
	if n := p.calls(); n > 0 {
		m[pre+"view_reads_per_call"] = float64(p.reads.Load()) / float64(n)
	}
	m[pre+"advance_us"] = p.advance.Mean() / 1e3

	fps, err := collectFootprints(x.engine, st.all.admittedIDs)
	if err != nil {
		return m, err
	}
	caps := make([]int, len(r.network.Cloudlets))
	for j, cl := range r.network.Cloudlets {
		caps[j] = cl.Capacity
	}
	rs, err := replay(caps, fps)
	if err != nil {
		return m, err
	}
	m["timeslot.reserve_ns"] = rs.reserve.Mean()
	m["timeslot.release_ns"] = rs.release.Mean()
	m["timeslot.advance_us"] = rs.advance.Mean() / 1e3
	if rs.admits > 0 {
		m["timeslot.assignments_per_admit"] = float64(rs.assignments) / float64(rs.admits)
	}
	m["timeslot.pool.acquire_ns"] = rs.acquire.Mean()
	m["timeslot.pool.release_ns"] = rs.poolRelease.Mean()
	if rs.groups > 0 {
		m["timeslot.pool.members_per_group"] = float64(rs.backups) / float64(rs.groups)
	}

	m["trace.sample_calls_per_req"] = float64(rec.samples.Load()) / sent
	m["trace.record_ns"] = rec.record.Mean()
	m["trace.records_per_kreq"] = float64(rec.record.Count()) / kreq

	if tr := x.engine.SLO(); tr != nil {
		rep := x.engine.RepairStats()
		if ticks := stats.Slot - 1; ticks > 0 {
			m["repair.repairs_per_ktick"] = float64(rep.Repairs) / float64(ticks) * 1000
		}
		if n := rep.Repairs + rep.FailedAttempts; n > 0 {
			m["repair.success_ratio"] = float64(rep.Repairs) / float64(n)
		}
		m["repair.degraded"] = float64(rep.Degraded)
		if ss := tr.Stats(); ss.Met+ss.Missed > 0 {
			m["slo.met_ratio"] = float64(ss.Met) / float64(ss.Met+ss.Missed)
		}
	}

	m["metrics.scrape_us"] = float64(st.scrapeDur.Nanoseconds()) / 1e3

	if len(st.lags) > 0 {
		q := durQuantiles(st.lags, 0.99, 1)
		m["loadgen.lag_p99_us"], m["loadgen.lag_max_us"] = q[0], q[1]
		m["loadgen.limit_miss_ratio"] = float64(st.overLimit) / float64(st.measured)
	}

	m["bench.failed_ratio"] = float64(st.all.failed) / sent
	if n := l.reqs.Load(); n > 0 && l.callSum.Load() > 0 {
		ledger := rs.reserve.Sum() + rs.release.Sum() + rs.acquire.Sum() + rs.poolRelease.Sum()
		perReq := float64(l.waitSum.Load()+l.schedSum.Load())/float64(n) + float64(ledger)/sent
		m["bench.unattributed_share"] = 1 - perReq/(float64(l.callSum.Load())/float64(n))
	}
	if rs.refused > 0 {
		fmt.Fprintf(os.Stderr, "revnfbench: ledger replay: %d of %d footprints refused (repairs reorder the books)\n", rs.refused, rs.admits)
	}
	return m, nil
}

// layerSummary gathers every traced epoch's per-layer metrics, plus the
// tracing overhead (the traced epochs' median throughput against the
// untraced epochs' of the same run) and the untraced epochs' latency
// tail, which host stalls move too much to bound (README.md).
func (r *runner) layerSummary() map[string][]float64 {
	out := map[string][]float64{}
	for _, lm := range r.layers {
		for k, v := range lm {
			out[k] = append(out[k], v)
		}
	}
	tput := func(eps []*epochStats) float64 {
		var xs []float64
		for _, st := range eps {
			xs = append(xs, st.e2e["throughput_rps"])
		}
		return median(xs)
	}
	if u := tput(r.untraced); u > 0 {
		out["bench.trace_overhead"] = []float64{1 - tput(r.traced)/u}
	}
	var p90, p99 []float64
	for _, st := range r.untraced {
		p90 = append(p90, st.e2e["latency_p90_us"])
		p99 = append(p99, st.e2e["latency_p99_us"])
	}
	out["bench.latency_p90_us"], out["bench.latency_p99_us"] = p90, p99
	return out
}
