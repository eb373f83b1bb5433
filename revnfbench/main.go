// Command revnfbench is the repository's admission benchmark. It drives
// serve.Engine in-process, and serve.StreamServer over loopback, with
// generated steady-state traffic, checks every run against the program's
// invariants, and prints one JSON result line. See README.md.
//
//	go run . --workload onsite-serial --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"revnf/internal/core"
	"revnf/internal/serve"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run prints with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "count"},
	{"heap_peak_mb", "MB"},
	{"admit_ratio", "ratio"},
	{"revenue_per_req", "payment"},
}

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

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "revnfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run and returns the exit code: 0 when every
// check passed, 1 when a correctness check failed (the result line is
// still printed), 2 when the run could not be made.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("revnfbench", flag.ContinueOnError)
	name := fs.String("workload", "onsite-serial", "workload name")
	seed := fs.Int64("seed", 1, "traffic seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	s, err := specByName(*name)
	if err != nil {
		return 2, err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return 2, fmt.Errorf("bad --seconds %d or --trace %d", *seconds, *traced)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r, err := newRunner(s, *seed)
	if err != nil {
		return 2, err
	}
	budget := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		if err := r.phase(budget/2, false); err != nil {
			return 2, err
		}
		if err := r.phase(budget-budget/2, true); err != nil {
			return 2, err
		}
	} else if err := r.phase(budget, false); err != nil {
		return 2, err
	}
	res, detail := r.report(*traced == 1)
	detail["host"] = hostStamp(*seed)
	line, err := json.Marshal(detail)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "%s\n", line)
	if line, err = json.Marshal(res); err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1, fmt.Errorf("correctness check failed: %s", strings.Join(r.violations, "; "))
	}
	return 0, nil
}

// runner holds one run's inputs and the epochs measured so far.
type runner struct {
	s       spec
	seed    int64
	network *core.Network
	reqs    []serve.AdmissionRequest

	setups     []float64
	untraced   []*epochStats
	traced     []*epochStats
	layers     []map[string]float64
	violations []string
	// lastScrape is the last epoch's /metrics scrape.
	lastScrape scrape
}

func newRunner(s spec, seed int64) (*runner, error) {
	n, err := buildNetwork(s)
	if err != nil {
		return nil, err
	}
	reqs, err := generate(s, n, seed, poolSize)
	if err != nil {
		return nil, err
	}
	return &runner{s: s, seed: seed, network: n, reqs: reqs}, nil
}

// minEpochs is the fewest epochs a phase runs, however short its budget.
const minEpochs = 2

// setupReps is how many times an epoch sets up; it keeps the last set-up
// and closes the others. The extra samples steady the set-up median.
const setupReps = 3

// phase runs epochs until the next one would overrun budget.
func (r *runner) phase(budget time.Duration, traced bool) error {
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := r.epoch(traced); err != nil {
			return err
		}
		if i+1 >= minEpochs && time.Now().Add(time.Since(t0)).After(deadline) {
			return nil
		}
	}
}

// epoch builds fresh program objects, runs one epoch through them, gates
// it and tears everything down. A fresh engine per epoch bounds the heap:
// the engine keeps a record of every placement it ever admitted.
func (r *runner) epoch(traced bool) error {
	var x *env
	for i := 0; i < setupReps; i++ {
		if x != nil {
			if err := x.close(); err != nil {
				return fmt.Errorf("teardown: %w", err)
			}
		}
		runtime.GC()
		t0 := nanotime()
		var err error
		x, err = setupEnv(r.s, r.network, r.seed, traced)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, float64(nanotime()-t0)/1e9)
	}
	st := &epochStats{}
	if traced {
		st.layer = &layerStats{}
	}
	var runErr error
	if r.s.submitters > 0 {
		runErr = closedEpoch(r.s, x, r.reqs, st)
	} else {
		runErr = openEpoch(r.s, x, r.reqs, st)
	}
	if runErr != nil {
		r.violate(runErr)
	}
	if err := gate(x, st); err != nil {
		r.violate(err)
	}
	if traced {
		lm, err := r.layerMetrics(x, st)
		if err != nil {
			r.violate(err)
		}
		r.layers = append(r.layers, lm)
	}
	r.lastScrape = st.scrape
	st.settle()
	if traced {
		r.traced = append(r.traced, st)
	} else {
		r.untraced = append(r.untraced, st)
	}
	if err := x.close(); err != nil {
		r.violate(fmt.Errorf("teardown: %w", err))
	}
	return nil
}

func (r *runner) violate(err error) {
	r.violations = append(r.violations, err.Error())
}

// endToEndOf returns one epoch's end-to-end metrics (setup_s excepted).
func endToEndOf(st *epochStats) map[string]float64 {
	n := float64(st.measured)
	q := durQuantiles(st.lat, 0.5, 0.9, 0.99)
	return map[string]float64{
		"throughput_rps":  n / st.wall.Seconds(),
		"latency_p50_us":  q[0],
		"latency_p90_us":  q[1],
		"latency_p99_us":  q[2],
		"cpu_us_per_req":  float64(st.cpu) / 1e3 / n,
		"allocs_per_req":  float64(st.allocs) / n,
		"heap_peak_mb":    float64(st.heapPeak) / 1e6,
		"admit_ratio":     float64(st.admitted) / n,
		"revenue_per_req": st.revenue / n,
	}
}

// report assembles the result line and the detail line: medians across
// epochs, with their spread and sample counts, and the correctness
// verdict over every epoch.
func (r *runner) report(traced bool) (result, map[string]any) {
	res := result{Metrics: map[string]metric{}}
	summaries := map[string]summary{}
	samples := 0
	perMetric := map[string][]float64{}
	digests := map[string]bool{}
	all := append(append([]*epochStats(nil), r.untraced...), r.traced...)
	for _, st := range all {
		res.Attempted += st.all.sent
		res.Failed += st.all.failed
		if r.s.digest {
			digests[fmt.Sprintf("%016x", st.digest)] = true
		}
	}
	for _, st := range r.untraced {
		for k, v := range st.e2e {
			perMetric[k] = append(perMetric[k], v)
		}
		samples += st.samples
	}
	perMetric["setup_s"] = r.setups
	if r.s.digest && len(digests) != 1 {
		r.violations = append(r.violations, fmt.Sprintf("decision digests differ across epochs: %v", keys(digests)))
	}
	printed := endToEnd
	if traced {
		for k, v := range r.layerSummary() {
			perMetric[k] = append(perMetric[k], v...)
		}
		printed = perLayer
	}
	for k, v := range perMetric {
		summaries[k] = summarize(v)
	}
	for _, m := range printed {
		v := summaries[m.name].Median
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.violations = append(r.violations, fmt.Sprintf("metric %s is not finite", m.name))
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	res.Correct = len(r.violations) == 0
	reasons := map[string]float64{}
	for k, v := range r.lastScrape {
		if strings.HasPrefix(k, "revnfd_rejections_total{") && v > 0 {
			reasons[k] = v
		}
	}
	detail := map[string]any{
		"last_epoch_rejections": reasons,
		"workload":              r.s.name,
		"epochs_untraced":       len(r.untraced),
		"epochs_traced":         len(r.traced),
		"digests":               keys(digests),
		"summary":               summaries,
		"latency_samples":       samples,
		"violations":            r.violations,
	}
	return res, detail
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// hostStamp identifies where and on what the run was made.
func hostStamp(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
