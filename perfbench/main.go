// Command perfbench is auricd's end-to-end benchmark. Each run starts real
// auricd processes, drives one workload against them from a single client
// process, checks every answer, and prints the metrics as one JSON object
// on the last line of standard output.
//
//	perfbench -auricd BIN -workdir DIR --workload launch-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it also
// replays the same operations in process against a ShardedEngine built
// with auricd's options and reports the per-layer metrics from spans the
// benchmark records around each public call. run.sh builds auricd and this
// command from source and runs it; README.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run starts the daemon; setup_s is the median.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: launch-cold, poll-hot or ingest-churn")
		seed    = flag.Uint64("seed", 1, "seed of the generated requests")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from an in-process traced replay")
		bin     = flag.String("auricd", "", "auricd binary")
		workdir = flag.String("workdir", "", "scratch directory for journals, snapshots and logs")
	)
	flag.Parse()
	if *bin == "" || *workdir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -auricd and -workdir are required")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, summary, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *bin, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", name)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(summary)
	fmt.Println(string(out))
}

// run executes one benchmark run and returns its result and a one-line
// human summary (sample counts, cache cross-checks, generator lateness).
func run(w workload, seed uint64, span time.Duration, traced bool, bin, workdir string) (*result, string, error) {
	dir, err := filepath.Abs(filepath.Join(workdir, w.name))
	if err != nil {
		return nil, "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	in, err := prepare(w, seed, dir)
	if err != nil {
		return nil, "", fmt.Errorf("prepare: %w", err)
	}
	or := newOracle(in.world.Current.Schema())
	r := newRunner(in, or, seed)

	// Start-up: setups spawns, the last one serves the workload. The
	// readiness request is a warm-up key, never a measured one.
	readyKey := planReads(w, seed, in.cost, span).warm[0]
	var setupS []float64
	var d *daemon
	defer func() { d.stop() }()
	for i := 0; i < setups; i++ {
		if d, err = startDaemon(bin, in.daemonArgs(), filepath.Join(dir, fmt.Sprintf("auricd-%d.log", i))); err != nil {
			return nil, "", err
		}
		took, err := d.waitReady(recommendBody(readyKey, w.pairwise), 120*time.Second)
		if err != nil {
			return nil, "", err
		}
		setupS = append(setupS, took.Seconds())
		if i < setups-1 {
			d.stop()
		}
	}

	ready, err := sampleProc(d.pid())
	if err != nil {
		return nil, "", err
	}
	r.epoch = time.Now()
	win, err := r.drive(d, span)
	if err != nil {
		return nil, "", err
	}
	end, err := sampleProc(d.pid())
	if err != nil {
		return nil, "", err
	}
	d.stop()

	// End-to-end metrics from the raw samples.
	var readOps, ackOps []timedOp
	var bytesOut, wait []float64
	var reads, acks, measuredOps, attempted, failed int
	var readFirst, readLast, ackFirst, ackLast time.Duration = -1, 0, -1, 0
	for _, rec := range r.recs {
		attempted++
		if !rec.ok {
			failed++
		}
		if rec.phase == phMeasure {
			measuredOps++
		}
		switch {
		case rec.kind == opRead && rec.phase == phMeasure:
			if readFirst < 0 || rec.sent < readFirst {
				readFirst = rec.sent
			}
			if rec.done > readLast {
				readLast = rec.done
			}
			if rec.ok {
				reads++
				readOps = append(readOps, timedOp{rec.from(), rec.done, ms(rec.latency())})
				bytesOut = append(bytesOut, float64(rec.bytes))
			}
			wait = append(wait, ms(rec.wait()))
		case rec.kind != opRead && (rec.phase == phMeasure || rec.phase == phProbe):
			if ackFirst < 0 || rec.sent < ackFirst {
				ackFirst = rec.sent
			}
			if rec.done > ackLast {
				ackLast = rec.done
			}
			if rec.ok {
				acks++
				ackOps = append(ackOps, timedOp{rec.from(), rec.done, ms(rec.latency())})
			}
		}
	}
	if reads == 0 || acks == 0 {
		return nil, "", fmt.Errorf("no successful reads (%d) or acks (%d): %v", reads, acks, r.errs)
	}
	// Operations that overlap a second in which the host stole CPU time
	// from this machine measure the host, not auricd: they are left out.
	readPart := win.steal.quiet(readOps, readFirst, readLast)
	ackPart := win.steal.quiet(ackOps, ackFirst, ackLast)
	readLat, ackLat := readPart.lat, ackPart.lat
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// Reference check (untimed; the daemon is stopped so the reference
	// engine does not compete with it for memory).
	var starts []startup
	if w.churn() {
		ref, net, tombs, err := in.compactedEngine()
		if err != nil {
			return nil, "", fmt.Errorf("reference engine: %w", err)
		}
		r.checkCompacted(net, tombs)
		if err := r.verify(ref); err != nil {
			return nil, "", fmt.Errorf("reference check: %w", err)
		}
	} else {
		ref, st, err := in.buildEngine(nil, nil, traced)
		if err != nil {
			return nil, "", fmt.Errorf("reference engine: %w", err)
		}
		starts = append(starts, st)
		if err := r.verify(ref); err != nil {
			return nil, "", fmt.Errorf("reference check: %w", err)
		}
	}
	release()
	res.Correct = or.ok()

	hits, misses := win.delta("auric_cache_hits_total"), win.delta("auric_cache_misses_total")
	shared := win.delta("auric_cache_singleflight_shared_total")
	lateP99 := quantile(r.dispatchLate, 0.99)
	behind := !math.IsNaN(lateP99) && lateP99 > generatorSlackMS
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s seed=%d: recommend n=%d p50=%.3fms p95=%.3fms p99=%.3fms; acks n=%d p50=%.3fms p95=%.3fms; setup=%v; ",
		w.name, seed, len(readLat), quantile(readLat, 0.5), quantile(readLat, 0.95), quantile(readLat, 0.99),
		len(ackLat), quantile(ackLat, 0.5), quantile(ackLat, 0.95), roundAll(setupS))
	fmt.Fprintf(&sb, "of %d s the host stole >%.1f%% CPU in %d, left out %d recommends; >%.1f%% in %d, left out %d acks; ",
		len(win.steal.share), readPart.cut*100, readPart.slices, readPart.dropped,
		ackPart.cut*100, ackPart.slices, ackPart.dropped)
	fmt.Fprintf(&sb, "rss peak after start-up %.0fMB, at end %.0fMB; ", ready.hwmMB, end.hwmMB)
	fmt.Fprintf(&sb, "http cache hits=%.0f misses=%.0f shared=%.0f ratio=%.4f; ", hits, misses, shared, hits/math.Max(hits+misses, 1))
	fmt.Fprintf(&sb, "error_ratio=%.4f (%d/%d); client.wait p99=%.3fms n=%d; ", float64(failed)/float64(attempted), failed, attempted, quantile(wait, 0.99), len(wait))
	if len(r.dispatchLate) > 0 {
		fmt.Fprintf(&sb, "generator late p99=%.3fms n=%d behind=%v; ", lateP99, len(r.dispatchLate), behind)
	}
	if len(r.errs) > 0 {
		fmt.Fprintf(&sb, "errors: %s; ", strings.Join(r.errs, " | "))
	}
	if !res.Correct {
		fmt.Fprintf(&sb, "ORACLE MISMATCH: %s", strings.Join(or.mismatches, " | "))
		logf("oracle mismatches: %s", strings.Join(or.mismatches, " | "))
	}
	if behind {
		logf("the generator fell behind its schedule (p99 %.3f ms late): latencies of this run overstate the server's", lateP99)
	}

	raw, err := json.Marshal(map[string][]float64{"setup_s": setupS, "recommend_ms": readLat, "ingest_ack_ms": ackLat, "client_wait_ms": wait, "steal_ticks": win.steal.ticks})
	if err != nil {
		return nil, "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "samples.json"), raw, 0o644); err != nil {
		return nil, "", err
	}

	if !traced {
		put("setup_s", "s", median(setupS))
		put("recommend_p50_ms", "ms", quantile(readLat, 0.5))
		put("recommend_p95_ms", "ms", quantile(readLat, 0.95))
		put("recommend_per_s", "1/s", readPart.perS)
		put("ingest_ack_p50_ms", "ms", quantile(ackLat, 0.5))
		put("ingest_ack_p95_ms", "ms", quantile(ackLat, 0.95))
		put("ingest_per_s", "1/s", ackPart.perS)
		put("rss_peak_mb", "MB", end.hwmMB)
		return res, sb.String(), nil
	}

	// Per-layer metrics: an untraced and a traced in-process replay of the
	// same operations, each on a freshly started engine.
	ops := replayOps(r.recs)
	plainTracker := newTracker()
	untracedEng, st1, err := in.buildEngine(tracedObserver{t: newTracer(false), h: plainTracker}, plainTracker, true)
	if err != nil {
		return nil, "", err
	}
	starts = append(starts, st1)
	plain, err := replay(untracedEng, newTracer(false), ops, in.world.Net, w.pairwise, filepath.Join(dir, "replay-untraced.jsonl"))
	if err != nil {
		return nil, "", err
	}
	release()

	t := newTracer(true)
	tracker := newTracker()
	tracedEng, st2, err := in.buildEngine(tracedObserver{t: t, h: tracker}, tracker, true)
	if err != nil {
		return nil, "", err
	}
	starts = append(starts, st2)
	tr, err := replay(tracedEng, t, ops, in.world.Net, w.pairwise, filepath.Join(dir, "replay-traced.jsonl"))
	if err != nil {
		return nil, "", err
	}
	self := t.selfTimes()
	worstGap, roots := t.pathCheck(self)
	if len(t.byName(self, "core.recommend_hit", time.Microsecond)) < 10 {
		if err := probeHits(tracedEng, t, ops, w.pairwise); err != nil {
			return nil, "", err
		}
	}
	cs, err := decompose(tracedEng, t, ops, w.pairwise)
	if err != nil {
		return nil, "", err
	}
	self = t.selfTimes()
	if err := t.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, "", err
	}

	// HTTP self time: each timed read's round trip minus the traced
	// in-process time of the same operation.
	var httpSelf []float64
	for i, op := range ops {
		if op.kind == opRead && op.phase == phMeasure {
			httpSelf = append(httpSelf, float64(op.done-op.sent-t.spans[tr.root[i]].dur())/float64(time.Microsecond))
		}
	}
	startMedian := func(f func(startup) time.Duration) float64 {
		var xs []float64
		for _, s := range starts {
			xs = append(xs, f(s).Seconds())
		}
		return median(xs)
	}
	us, msU := time.Microsecond, time.Millisecond
	put("auricd.http_self_us", "us", median(httpSelf))
	put("auricd.response_bytes", "bytes", median(bytesOut))
	put("auricd.cpu_ms_per_op", "ms", (win.cpu1.cpuSec-win.cpu0.cpuSec)*1000/float64(measuredOps))
	put("client.wait_ms", "ms", quantile(wait, 0.99))
	put("core.recommend_hit_us", "us", median(t.byName(self, "core.recommend_hit", us)))
	put("core.recommend_miss_us", "us", median(t.byName(self, "core.recommend_miss", us)))
	put("core.cache_hit_ratio", "ratio", float64(tr.hits)/float64(max(tr.hits+tr.misses, 1)))
	put("cf.predict_us", "us", median(t.byName(self, "cf.predict", us)))
	put("cf.dependents_us", "us", median(t.byName(self, "cf.dependents", us)))
	put("cf.jobs_per_request", "count", float64(cs.jobs)/float64(max(cs.requests, 1)))
	put("cf.exact_index_ratio", "ratio", float64(cs.exact)/float64(max(cs.jobs, 1)))
	put("health.observe_served_us", "us", median(t.byName(self, "health.observe_served", us)))
	put("health.observe_apply_ms", "ms", median(t.byName(self, "health.observe_apply", msU)))
	put("core.apply_ms", "ms", median(t.byName(self, "core.apply", msU)))
	put("core.apply_refit_share", "ratio", float64(tr.refit)/float64(max(tr.patched+tr.refit, 1)))
	put("journal.append_ms", "ms", median(t.byName(self, "journal.append", msU)))
	put("core.load_s", "s", startMedian(func(s startup) time.Duration { return s.load }))
	put("netsim.generate_s", "s", in.genTime.Seconds())
	put("snapshot.load_s", "s", startMedian(func(s startup) time.Duration { return s.snapshotLoad }))
	put("geo.build_x2_s", "s", startMedian(func(s startup) time.Duration { return s.buildX2 }))
	put("journal.open_s", "s", startMedian(func(s startup) time.Duration { return s.journalOpen }))
	put("core.replay_s", "s", startMedian(func(s startup) time.Duration { return s.replay }))
	overhead := (tr.wall.Seconds()/plain.wall.Seconds() - 1) * 100
	put("trace.overhead_pct", "%", overhead)

	fmt.Fprintf(&sb, "trace: %d ops replayed, untraced %.3fs traced %.3fs (overhead %.2f%%); in-process cache hits=%d misses=%d shared=%d; "+
		"refit share %d/%d over the replayed mutations (daemon, whole run: %.0f/%.0f); blocking-path self-time sum within %.2f%% of request time over %d roots; %d spans",
		len(ops), plain.wall.Seconds(), tr.wall.Seconds(), overhead, tr.hits, tr.misses, tr.shared,
		tr.refit, tr.patched+tr.refit, win.deltaToEnd("auric_ingest_models_refit_total"),
		win.deltaToEnd("auric_ingest_models_refit_total")+win.deltaToEnd("auric_ingest_models_patched_total"),
		worstGap*100, roots, len(t.spans))
	if worstGap > 0.10 {
		res.Correct = false
		logf("span accounting: self times along a request's path miss its duration by %.1f%%", worstGap*100)
	}
	return res, sb.String(), nil
}

// generatorSlackMS is how late (p99) the open-loop dispatcher may run
// before a run is flagged as limited by the generator, not the server.
const generatorSlackMS = 5.0

// release returns a dropped engine's memory before the next one loads.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	sort.Float64s(out)
	return out
}
