// Command auricload is the standing performance harness of the serving
// path: it drives sustained recommendation load against a sharded
// multi-market engine and reports throughput and latency quantiles as a
// JSON document — the artifact EXPERIMENTS.md quotes and `make check`
// gates on.
//
// By default the load runs in process: a netsim snapshot is generated,
// a ShardedEngine trains one shard per market, and worker goroutines
// issue single or batched recommendation requests against it for the
// configured duration. This measures the full serving data path (shard
// routing, generation pinning, engine fan-out, per-item assembly) without
// HTTP noise, so the numbers are stable enough to gate a build on. With
// -target the same workers instead POST /v1/recommend to a live auricd,
// measuring the end-to-end HTTP path.
//
// -reloads N swaps the snapshot N times while the load runs, proving the
// zero-downtime property under fire: with -max-failures 0 (the default)
// any request failing during a swap fails the run.
//
// -churn R races live ingest against the recommend traffic (in-process
// mode): a churner applies R carrier mutations per second — each one an
// upsert of a new carrier plus a tombstone of the previous one, the
// steady-state shape of a network tracking adds and decommissions — while
// the workers keep recommending. The report gains ingest op counts and a
// separate ingest latency distribution, so the cost of incremental fit
// under serving load is measured, not assumed.
//
// Latency is recorded into an internal/obs histogram and the report's
// p50/p90/p99 come from Histogram.Quantile — the same estimator the
// /metrics consumers apply, so harness numbers and production dashboards
// read on one scale.
//
//	auricload -markets 4 -enbs 12 -duration 5s -batch 16 -reloads 2
//	auricload -target http://127.0.0.1:8400 -duration 10s
//
// The report goes to stdout (or -report FILE). Exit status is non-zero
// when -min-rps or -max-failures is violated, which is what makes the
// harness a gate rather than a dashboard.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"auric"
	"auric/internal/obs"
)

type options struct {
	seed    uint64
	markets int
	enbs    int

	duration time.Duration
	workers  int
	batch    int
	pairwise bool
	reloads  int
	churn    float64

	// uniqueCarriers restricts the traffic to this many distinct requests,
	// zipf-distributed so a few carriers repeat heavily — the repeat-heavy
	// shape the generation-keyed serving cache exists for. 0 keeps the
	// historical uniform sweep over every carrier.
	uniqueCarriers int
	cacheEntries   int

	engineWorkers int
	target        string

	minRPS         float64
	minCPS         float64
	maxFailures    int64
	maxUnsupported float64
}

// report is the JSON document auricload emits; field names are the
// contract EXPERIMENTS.md and scripts/load_smoke.sh parse.
type report struct {
	Mode            string  `json:"mode"` // "inprocess" or "http"
	Seed            uint64  `json:"seed,omitempty"`
	Markets         int     `json:"markets,omitempty"`
	Carriers        int     `json:"carriers,omitempty"`
	Workers         int     `json:"workers"`
	Batch           int     `json:"batch"`
	DurationSeconds float64 `json:"durationSeconds"`
	Requests        int64   `json:"requests"`
	CarriersServed  int64   `json:"carriersServed"`
	Failures        int64   `json:"failures"`
	Reloads         int     `json:"reloads"`
	RPS             float64 `json:"rps"` // requests per second
	CarriersPerSec  float64 `json:"carriersPerSec"`
	Latency         latency `json:"latencySeconds"`
	// Prediction-quality fields (in-process mode only; the HTTP mode
	// discards response bodies and cannot score them): how many per-
	// parameter predictions the served requests carried, what share was
	// unsupported (no evidence pool, engine fell back to the current
	// value), and the mean prediction confidence. Pointers so the HTTP
	// mode omits them instead of reporting a misleading zero.
	Predictions      int64    `json:"predictions,omitempty"`
	UnsupportedRatio *float64 `json:"unsupportedRatio,omitempty"`
	MeanConfidence   *float64 `json:"meanConfidence,omitempty"`
	// Churn-mode fields (-churn): ingest deltas applied while the load
	// ran, how many failed, and the ingest latency distribution.
	ChurnOps      int64    `json:"churnOps,omitempty"`
	ChurnFailures int64    `json:"churnFailures,omitempty"`
	ChurnLatency  *latency `json:"churnLatencySeconds,omitempty"`
	// Serving-cache fields: how much of the run's traffic the generation-
	// keyed cache absorbed. In-process they read the engine's CacheStats;
	// in HTTP mode they come from the target's auric_cache_* metrics delta
	// across the run, and are omitted when the target does not expose them
	// (or the cache is disabled).
	UniqueCarriers int      `json:"uniqueCarriers,omitempty"`
	CacheHits      int64    `json:"cacheHits,omitempty"`
	CacheMisses    int64    `json:"cacheMisses,omitempty"`
	HitRatio       *float64 `json:"hitRatio,omitempty"`
}

// cacheReport fills the report's serving-cache fields from a hit/miss
// tally covering the run.
func (rep *report) cacheReport(hits, misses int64) {
	rep.CacheHits, rep.CacheMisses = hits, misses
	if total := hits + misses; total > 0 {
		hr := float64(hits) / float64(total)
		rep.HitRatio = &hr
	}
}

// predStats accumulates one worker's prediction-quality tallies; each
// worker owns one padded slot so the hot loop never shares a cache line.
type predStats struct {
	preds       int64
	unsupported int64
	confSum     float64
	_           [5]int64
}

func (ps *predStats) note(recs []auric.Recommendation) {
	for i := range recs {
		ps.preds++
		if !recs[i].Supported {
			ps.unsupported++
		}
		ps.confSum += recs[i].Confidence
	}
}

type latency struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
}

func main() {
	var o options
	flag.Uint64Var(&o.seed, "seed", 1, "netsim snapshot seed (in-process mode)")
	flag.IntVar(&o.markets, "markets", 4, "netsim markets (in-process mode)")
	flag.IntVar(&o.enbs, "enbs", 10, "eNodeBs per market (in-process mode)")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "load duration")
	flag.IntVar(&o.workers, "workers", 0, "concurrent load workers (0 = GOMAXPROCS)")
	flag.IntVar(&o.batch, "batch", 1, "carriers per request (>1 uses the batch path)")
	flag.BoolVar(&o.pairwise, "pairwise", false, "request pair-wise recommendations too")
	flag.IntVar(&o.reloads, "reloads", 0, "snapshot reloads performed while the load runs")
	flag.Float64Var(&o.churn, "churn", 0, "live-ingest deltas per second racing the load (in-process mode; 0 disables)")
	flag.IntVar(&o.uniqueCarriers, "unique-carriers", 0, "restrict traffic to this many distinct carriers, zipf-distributed so a few repeat heavily (0 = uniform over every carrier)")
	flag.IntVar(&o.cacheEntries, "cache-entries", 4096, "generation-keyed serving cache size of the in-process engine (0 disables)")
	flag.IntVar(&o.engineWorkers, "engine-workers", 1, "per-shard engine worker pool (keep 1: the load workers provide the parallelism)")
	flag.StringVar(&o.target, "target", "", "drive a live auricd at this base URL instead of in-process")
	flag.Float64Var(&o.minRPS, "min-rps", 0, "fail the run below this request rate (0 disables)")
	flag.Float64Var(&o.minCPS, "min-cps", 0, "fail the run below this many carriers served per second (0 disables; the batch-mode throughput gate)")
	flag.Int64Var(&o.maxFailures, "max-failures", 0, "fail the run above this many failed requests (-1 disables)")
	flag.Float64Var(&o.maxUnsupported, "max-unsupported", -1, "fail the run when the unsupported-prediction share exceeds this ratio (in-process mode; negative disables)")
	reportPath := flag.String("report", "", "write the JSON report here instead of stdout")
	flag.Parse()

	rep, err := run(&o)
	if err != nil {
		log.Fatalf("auricload: %v", err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("auricload: encoding report: %v", err)
	}
	out = append(out, '\n')
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, out, 0o644); err != nil {
			log.Fatalf("auricload: %v", err)
		}
	} else {
		os.Stdout.Write(out)
	}
	if o.minRPS > 0 && rep.RPS < o.minRPS {
		log.Fatalf("auricload: %.0f req/s is below the -min-rps gate of %.0f", rep.RPS, o.minRPS)
	}
	if o.minCPS > 0 && rep.CarriersPerSec < o.minCPS {
		log.Fatalf("auricload: %.0f carriers/s is below the -min-cps gate of %.0f", rep.CarriersPerSec, o.minCPS)
	}
	if o.maxFailures >= 0 && rep.Failures+rep.ChurnFailures > o.maxFailures {
		log.Fatalf("auricload: %d failed requests (%d of them ingest) exceed the -max-failures gate of %d",
			rep.Failures+rep.ChurnFailures, rep.ChurnFailures, o.maxFailures)
	}
	if o.maxUnsupported >= 0 {
		if rep.UnsupportedRatio == nil {
			log.Fatalf("auricload: the run produced no scored predictions to gate -max-unsupported on")
		}
		if *rep.UnsupportedRatio > o.maxUnsupported {
			log.Fatalf("auricload: unsupported-prediction ratio %.4f exceeds the -max-unsupported gate of %.4f",
				*rep.UnsupportedRatio, o.maxUnsupported)
		}
	}
}

// carrierPicker chooses which carrier each request asks about. The
// uniform mode sweeps every carrier in order (the historical shape); the
// -unique-carriers mode draws from a zipf distribution over a fixed
// subset, so rank 0 repeats far more often than rank k — the repeat-heavy
// traffic a launch queue produces (the same few about-to-launch carriers
// polled again and again) and the shape the serving cache absorbs.
type carrierPicker struct {
	zipf   *rand.Zipf
	unique int
	total  int
}

func newPicker(o *options, worker, total int) *carrierPicker {
	p := &carrierPicker{total: total}
	if o.uniqueCarriers > 0 {
		p.unique = o.uniqueCarriers
		if p.unique > total {
			p.unique = total
		}
		if p.unique > 1 {
			r := rand.New(rand.NewSource(int64(o.seed)*1024 + int64(worker)))
			p.zipf = rand.NewZipf(r, 1.2, 1, uint64(p.unique-1))
		}
	}
	return p
}

// next returns the carrier index for the request with sequential index seq.
func (p *carrierPicker) next(seq int) int {
	if p.unique == 0 {
		return seq % p.total
	}
	if p.zipf == nil { // -unique-carriers 1
		return 0
	}
	// Spread the zipf ranks across the id space (and so across markets)
	// instead of concentrating them in the low-id market.
	return int(p.zipf.Uint64()) * p.total / p.unique
}

func run(o *options) (*report, error) {
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if o.batch < 1 {
		o.batch = 1
	}
	if o.uniqueCarriers < 0 {
		o.uniqueCarriers = 0
	}
	if o.duration <= 0 {
		return nil, fmt.Errorf("duration %v is not positive", o.duration)
	}
	if o.churn > 0 && o.target != "" {
		return nil, fmt.Errorf("-churn drives the in-process engine and cannot combine with -target")
	}
	if o.maxUnsupported >= 0 && o.target != "" {
		// The HTTP workers discard response bodies, so there is nothing
		// to score the gate against.
		return nil, fmt.Errorf("-max-unsupported scores in-process predictions and cannot combine with -target")
	}
	if o.churn > 0 && o.reloads > 0 {
		// A reload drops live-ingested carriers, so the churner's next
		// tombstone would fail spuriously; keep the two modes apart.
		return nil, fmt.Errorf("-churn and -reloads cannot combine: a reload discards ingested carriers mid-run")
	}
	if o.target != "" {
		return runHTTP(o)
	}
	return runInProcess(o)
}

// runInProcess measures the engine serving path: shard routing,
// generation pinning and recommendation fan-out, with optional snapshot
// swaps racing the load.
func runInProcess(o *options) (*report, error) {
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: o.seed, Markets: o.markets, ENodeBsPerMarket: o.enbs})
	engine := auric.NewShardedEngine(w.Schema, auric.EngineOptions{Local: true, Workers: o.engineWorkers, CacheEntries: o.cacheEntries})
	if _, err := engine.Load(w.Net, w.X2, w.Current); err != nil {
		return nil, err
	}
	hist := obs.New().Histogram("auricload_request_seconds",
		"Latency per recommendation request issued by auricload.", obs.DefBuckets)

	var requests, carriers, failures atomic.Int64
	stats := make([]predStats, o.workers)
	deadline := time.Now().Add(o.duration)
	start := time.Now()

	var wg sync.WaitGroup
	for g := 0; g < o.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			st := &stats[g]
			pick := newPicker(o, g, len(w.Net.Carriers))
			for i := g; time.Now().Before(deadline); i += o.batch {
				t0 := time.Now()
				items := make([]auric.BatchItem, o.batch)
				for j := range items {
					c := &w.Net.Carriers[pick.next(i+j)]
					items[j] = auric.BatchItem{Carrier: c}
					if o.pairwise {
						items[j].Neighbors = w.X2.CarrierNeighbors(c.ID)
					}
				}
				res, err := engine.RecommendBatch(ctx, items)
				if err != nil {
					failures.Add(int64(o.batch))
				} else {
					for _, r := range res {
						if r.Err != nil || len(r.Recommendations) == 0 {
							failures.Add(1)
						} else {
							st.note(r.Recommendations)
						}
					}
				}
				carriers.Add(int64(o.batch))
				hist.Observe(time.Since(t0).Seconds())
				requests.Add(1)
			}
		}(g)
	}

	// The reloader swaps the serving snapshot at even intervals across
	// the run; with -max-failures 0 any request it breaks fails the gate.
	reloadErr := make(chan error, 1)
	go func() {
		defer close(reloadErr)
		if o.reloads <= 0 {
			return
		}
		interval := o.duration / time.Duration(o.reloads+1)
		for i := 0; i < o.reloads; i++ {
			time.Sleep(interval)
			if _, err := engine.Load(w.Net, w.X2, w.Current); err != nil {
				reloadErr <- fmt.Errorf("reload %d: %w", i+1, err)
				return
			}
		}
	}()

	// The churner races live ingest against the recommend load: each delta
	// creates a carrier and tombstones the previous one, so the inventory
	// stays bounded while every op exercises the incremental-fit patch path
	// and a generation swap under fire.
	var churnOps, churnFailures atomic.Int64
	churnHist := obs.New().Histogram("auricload_ingest_seconds",
		"Latency per ingest delta applied by the churner.", obs.DefBuckets)
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		if o.churn <= 0 {
			return
		}
		interval := time.Duration(float64(time.Second) / o.churn)
		donor := w.Net.Carriers[0]
		prev := auric.CarrierID(-1)
		for time.Now().Before(deadline) {
			c := donor
			c.ID = -1
			d := auric.Delta{Upserts: []auric.Upsert{{Carrier: c}}}
			if prev >= 0 {
				d.Tombstones = []auric.CarrierID{prev}
			}
			t0 := time.Now()
			res, err := engine.Apply(d)
			took := time.Since(t0)
			churnHist.Observe(took.Seconds())
			churnOps.Add(1)
			if err != nil {
				churnFailures.Add(1)
			} else {
				prev = res.Assigned[0]
			}
			if rest := interval - took; rest > 0 {
				time.Sleep(rest)
			}
		}
	}()

	wg.Wait()
	<-churnDone
	if err := <-reloadErr; err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	rep := &report{
		Mode: "inprocess", Seed: o.seed, Markets: o.markets,
		Carriers: len(w.Net.Carriers), Workers: o.workers, Batch: o.batch,
		DurationSeconds: elapsed.Seconds(),
		Requests:        requests.Load(),
		CarriersServed:  carriers.Load(),
		Failures:        failures.Load(),
		Reloads:         o.reloads,
	}
	fill(rep, hist, elapsed)
	var preds, unsupported int64
	var confSum float64
	for i := range stats {
		preds += stats[i].preds
		unsupported += stats[i].unsupported
		confSum += stats[i].confSum
	}
	rep.Predictions = preds
	if preds > 0 {
		ur := float64(unsupported) / float64(preds)
		mc := confSum / float64(preds)
		rep.UnsupportedRatio = &ur
		rep.MeanConfidence = &mc
	}
	if o.churn > 0 {
		rep.ChurnOps = churnOps.Load()
		rep.ChurnFailures = churnFailures.Load()
		cl := &latency{
			P50: churnHist.Quantile(0.5),
			P90: churnHist.Quantile(0.9),
			P99: churnHist.Quantile(0.99),
		}
		if n := churnHist.Count(); n > 0 {
			cl.Mean = churnHist.Sum() / float64(n)
		}
		rep.ChurnLatency = cl
	}
	rep.UniqueCarriers = o.uniqueCarriers
	if cs := engine.CacheStats(); cs.Enabled {
		rep.cacheReport(int64(cs.Hits), int64(cs.Misses))
	}
	return rep, nil
}

// runHTTP drives a live auricd's POST /v1/recommend, measuring the
// end-to-end HTTP path. Failures are transport errors and non-200s.
func runHTTP(o *options) (*report, error) {
	base := strings.TrimSuffix(o.target, "/")
	// Probe the target and learn the carrier count to spread load over.
	resp, err := http.Get(base + "/v1/network")
	if err != nil {
		return nil, err
	}
	var net struct {
		Carriers int `json:"carriers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&net)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("probing %s: %w", base, err)
	}
	if net.Carriers == 0 {
		return nil, fmt.Errorf("target %s reports no carriers", base)
	}
	hist := obs.New().Histogram("auricload_request_seconds",
		"Latency per recommendation request issued by auricload.", obs.DefBuckets)

	client := &http.Client{Timeout: 2 * time.Minute}
	// Cache counters before the load: the report's hit ratio is the delta
	// across the run, so a long-lived target's history does not dilute it.
	hits0, misses0, scraped := scrapeCacheCounters(client, base)
	var requests, carriers, failures atomic.Int64
	deadline := time.Now().Add(o.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < o.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pick := newPicker(o, g, net.Carriers)
			for i := g; time.Now().Before(deadline); i += o.batch {
				body := requestBody(o, pick, i)
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
				} else {
					if resp.StatusCode != http.StatusOK {
						failures.Add(1)
					}
					resp.Body.Close()
				}
				hist.Observe(time.Since(t0).Seconds())
				requests.Add(1)
				carriers.Add(int64(o.batch))
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		Mode: "http", Workers: o.workers, Batch: o.batch,
		Carriers:        net.Carriers,
		DurationSeconds: elapsed.Seconds(),
		Requests:        requests.Load(),
		CarriersServed:  carriers.Load(),
		Failures:        failures.Load(),
	}
	fill(rep, hist, elapsed)
	rep.UniqueCarriers = o.uniqueCarriers
	if scraped {
		if hits1, misses1, ok := scrapeCacheCounters(client, base); ok {
			rep.cacheReport(hits1-hits0, misses1-misses0)
		}
	}
	return rep, nil
}

// scrapeCacheCounters reads the target's auric_cache_hits_total and
// auric_cache_misses_total from /metrics. ok is false when the endpoint
// or the counters are absent (an auricd without the cache, or any other
// server): the report then simply omits the cache fields.
func scrapeCacheCounters(client *http.Client, base string) (hits, misses int64, ok bool) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, false
	}
	var haveHits, haveMisses bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "auric_cache_hits_total":
			hits, haveHits = int64(v), true
		case "auric_cache_misses_total":
			misses, haveMisses = int64(v), true
		}
	}
	return hits, misses, haveHits && haveMisses
}

// requestBody builds the i-th request: a single object for batch 1, an
// array of batch carrier objects otherwise.
func requestBody(o *options, pick *carrierPicker, i int) []byte {
	one := func(id int) string {
		if o.pairwise {
			return fmt.Sprintf(`{"carrier": %d, "pairwise": true}`, id)
		}
		return fmt.Sprintf(`{"carrier": %d}`, id)
	}
	if o.batch == 1 {
		return []byte(one(pick.next(i)))
	}
	parts := make([]string, o.batch)
	for j := range parts {
		parts[j] = one(pick.next(i + j))
	}
	return []byte("[" + strings.Join(parts, ",") + "]")
}

func fill(rep *report, hist *obs.Histogram, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs > 0 {
		rep.RPS = float64(rep.Requests) / secs
		rep.CarriersPerSec = float64(rep.CarriersServed) / secs
	}
	rep.Latency = latency{
		P50: hist.Quantile(0.5),
		P90: hist.Quantile(0.9),
		P99: hist.Quantile(0.99),
	}
	if n := hist.Count(); n > 0 {
		rep.Latency.Mean = hist.Sum() / float64(n)
	}
}
