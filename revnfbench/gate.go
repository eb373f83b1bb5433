package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"time"

	"revnf/internal/core"
	"revnf/internal/serve"
)

// scrape is one parsed /metrics exposition: sample values keyed by the
// series exactly as rendered, name{labels}.
type scrape map[string]float64

// scrapeReps is how many times the gate renders /metrics; the timing is
// the median render, the checks use the last.
const scrapeReps = 5

// scrapeMetrics renders /metrics through serve.NewHandler and parses it.
func scrapeMetrics(e *serve.Engine) (scrape, time.Duration, error) {
	h := serve.NewHandler(e)
	var durs []float64
	var body string
	for i := 0; i < scrapeReps; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		t0 := nanotime()
		h.ServeHTTP(rec, req)
		durs = append(durs, float64(nanotime()-t0))
		if rec.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("/metrics answered %d", rec.Code)
		}
		body = rec.Body.String()
	}
	sc, err := parseExposition(body)
	return sc, time.Duration(median(durs)), err
}

func parseExposition(body string) (scrape, error) {
	sc := scrape{}
	s := bufio.NewScanner(strings.NewReader(body))
	s.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for s.Scan() {
		line := s.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		sc[line[:i]] = v
	}
	return sc, s.Err()
}

// histQuantile interpolates the q-quantile of the histogram family name
// linearly inside its bucket, Prometheus-style (0 when empty).
func (sc scrape) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range sc {
		if strings.HasPrefix(k, prefix) {
			le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{le, v})
			}
		}
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// drainTicks is enough ticks for every placement of an epoch to expire:
// durations are at most 10 slots.
const drainTicks = 11

// gate checks a finished epoch against the program's invariants, then
// ticks the engine until every placement expired and checks the ledger
// drained. It keeps the scrape and its median render time in st.
func gate(x *env, st *epochStats) error {
	t := st.all
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if t.sent != t.admitted+t.rejected+t.failed {
		fail("sent %d != admitted %d + rejected %d + failed %d", t.sent, t.admitted, t.rejected, t.failed)
	}
	stats := x.engine.Stats()
	if stats.Admitted != uint64(t.admitted) {
		fail("engine admitted %d, clients saw %d", stats.Admitted, t.admitted)
	}
	decided := uint64(0)
	for reason, n := range stats.Rejections {
		if !isFailure(reason) {
			decided += n
		}
	}
	if decided != uint64(t.rejected) {
		fail("engine rejected %d, clients saw %d", decided, t.rejected)
	}
	if !core.FloatEq(stats.Revenue, t.revenue) {
		fail("engine revenue %v != admitted payments %v", stats.Revenue, t.revenue)
	}
	sc, scrapeDur, err := scrapeMetrics(x.engine)
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	for proto, want := range map[string]int{"json": 0, "frame": t.frameSent, "ndjson": t.ndjsonSent} {
		key := `revnfd_ingest_requests_total{protocol="` + proto + `"}`
		if got, ok := sc[key]; !ok || got != float64(want) {
			fail("%s = %v, sent %d", key, got, want)
		}
	}
	if got := sc["revnfd_revenue_total"]; !core.FloatEq(got, t.revenue) {
		fail("revnfd_revenue_total %v != admitted payments %v", got, t.revenue)
	}
	prices := 0
	for k, v := range sc {
		if strings.HasPrefix(k, "revnfd_dual_price{") {
			prices++
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fail("%s is not finite: %v", k, v)
			}
		}
	}
	if prices == 0 {
		fail("/metrics exposes no revnfd_dual_price")
	}
	tk := ticker{engine: x.engine}
	for i := 0; i < drainTicks; i++ {
		if err := tk.tick(); err != nil {
			fail("drain: %v", err)
			break
		}
	}
	if a := x.engine.Stats().ActivePlacements; a != 0 {
		fail("%d placements still active after the drain", a)
	}
	// A reservation left behind pins the rolling window: the base can only
	// reach the clock once every row below it is back at full capacity.
	if base, slot := x.engine.WindowBase(), x.engine.Slot(); base != slot {
		fail("ledger not drained: window base %d behind slot %d", base, slot)
	}
	for _, cl := range x.engine.Cloudlets() {
		for k, r := range cl.Residual {
			if r != cl.Capacity {
				fail("ledger not drained: cloudlet %d slot %d residual %d of %d", cl.ID, cl.FromSlot+k, r, cl.Capacity)
				break
			}
		}
	}
	st.scrape, st.scrapeDur = sc, scrapeDur
	return errors.Join(errs...)
}
