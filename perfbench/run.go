package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"auric/internal/core"
	"auric/internal/lte"
)

type phase uint8

const (
	phWarm    phase = iota // untimed: connections and the hot keys' first answers
	phMeasure              // the timed window
	phProbe                // closed-loop ingest after the read phase
	phPost                 // untimed oracle reads after the churn stopped
)

type opKind uint8

const (
	opRead opKind = iota
	opUpsert
	opDelete
)

// opRec is one operation the client sent. Times are offsets from the
// run's epoch; due is when an open-loop request fell due and ready when a
// closed-loop sender could have sent (its previous reply), -1 otherwise.
type opRec struct {
	kind       opKind
	phase      phase
	key        int // read: carrier; upsert: donor; delete: target
	id         int // upsert: the id the ack assigned
	due, ready time.Duration
	sent, done time.Duration
	ok         bool
	bytes      int
}

func (r opRec) latency() time.Duration { return r.done - r.from() }

// from is when the operation started to wait for its reply: when it fell
// due in an open loop, when it was sent otherwise.
func (r opRec) from() time.Duration {
	if r.due >= 0 {
		return r.due
	}
	return r.sent
}

func (r opRec) wait() time.Duration {
	switch {
	case r.due >= 0:
		return r.sent - r.due
	case r.ready >= 0:
		return r.sent - r.ready
	}
	return 0
}

// sender is one client connection: an HTTP client allowed a single
// connection to the daemon.
type sender struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newSender(base string) *sender {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true, IdleConnTimeout: time.Minute}
	return &sender{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (s *sender) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, s.buf.Bytes(), err
}

func (s *sender) close() { s.c.CloseIdleConnections() }

type pendingRead struct {
	key  int
	body []byte
}

// applied is one acknowledged mutation, in ack order.
type applied struct {
	m  mutation
	id int
}

// runner drives one daemon and checks every answer.
type runner struct {
	in    *inputs
	or    *oracle
	seed  uint64
	epoch time.Time
	base  string

	mu        sync.Mutex
	recs      []opRec
	errs      []string
	sampled   map[int]bool
	samples   map[int][]*recResponse // answers compared with the reference
	neighbors map[int][]int          // pair-wise neighbour set served per carrier
	canon     map[int][]byte         // verified answer per hot key (read-only once measuring)
	pending   []pendingRead          // timed answers checked after the window

	acks         ackChecker
	mutations    []applied
	dispatchLate []float64 // open-loop generator lateness, ms
}

func newRunner(in *inputs, or *oracle, seed uint64) *runner {
	return &runner{
		in: in, or: or, seed: seed,
		sampled:   map[int]bool{},
		samples:   map[int][]*recResponse{},
		neighbors: map[int][]int{},
		canon:     map[int][]byte{},
		acks:      ackChecker{lastID: len(in.world.Net.Carriers) - 1},
	}
}

func (r *runner) now() time.Duration { return time.Since(r.epoch) }

func (r *runner) record(rec opRec) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

func (r *runner) transportError(format string, args ...any) {
	r.mu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// read sends one recommend request and checks the answer.
func (r *runner) read(s *sender, key int, ph phase, due, ready time.Duration, scratch *[]byte) {
	pairwise := r.in.w.pairwise
	sent := r.now()
	status, body, err := s.do("POST", "/v1/recommend", recommendBody(key, pairwise))
	rec := opRec{kind: opRead, phase: ph, key: key, due: due, ready: ready, sent: sent, done: r.now(), bytes: len(body)}
	switch {
	case err != nil:
		r.transportError("recommend %d: %v", key, err)
	case status != http.StatusOK:
		r.transportError("recommend %d: HTTP %d: %.200s", key, status, body)
	case ph == phMeasure && !r.inlineCheck():
		// Decoding a large answer would take CPU from the daemon inside
		// the timed window: keep a copy and check it after the window.
		rec.ok = true
		r.mu.Lock()
		r.pending = append(r.pending, pendingRead{key: key, body: append([]byte(nil), body...)})
		r.mu.Unlock()
	default:
		rec.ok = true
		r.checkRead(key, ph, body, scratch)
	}
	r.record(rec)
}

// inlineCheck reports whether timed answers are checked as they arrive:
// hot keys of a fixed inventory compare bytes with their verified first
// answer, which is cheap; everything else is decoded after the window.
func (r *runner) inlineCheck() bool { return r.in.w.hotKeys > 0 && !r.in.w.churn() }

// checkPending checks the answers the timed window deferred.
func (r *runner) checkPending() {
	var scratch []byte
	for _, p := range r.pending {
		r.checkRead(p.key, phMeasure, p.body, &scratch)
	}
	r.pending = nil
}

// checkRead verifies one 200 answer. Hot keys of a fixed inventory must
// repeat their verified first answer byte for byte (traceId aside); every
// other answer is decoded and checked against the schema.
func (r *runner) checkRead(key int, ph phase, body []byte, scratch *[]byte) {
	w := r.in.w
	if r.inlineCheck() && ph == phMeasure {
		*scratch = stripTraceID((*scratch)[:0], body)
		if want, ok := r.canon[key]; !ok || !bytes.Equal(want, *scratch) {
			r.or.fail("carrier %d: answer differs from its first answer", key)
		}
		return
	}
	resp, err := parseRecommend(body)
	if err != nil {
		r.or.fail("carrier %d: undecodable answer: %v", key, err)
		return
	}
	nbs, err := r.or.shape(key, w.pairwise, resp)
	if err != nil {
		r.or.fail("%v", err)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w.pairwise {
		r.neighbors[key] = nbs
	}
	// A hot key's verified first answer becomes the one its timed answers
	// must repeat, and is compared with the reference.
	first := r.inlineCheck() && ph == phWarm
	if r.sampled[key] || ph == phPost || first {
		r.samples[key] = append(r.samples[key], resp)
	}
	if first {
		r.canon[key] = stripTraceID(nil, body)
	}
}

// mutate sends the feed's next mutation and checks its ack. due is when
// an open-loop mutation fell due, -1 in a closed loop.
func (r *runner) mutate(s *sender, f *feed, ph phase, due time.Duration) {
	m := f.nextMutation()
	method, path, body := m.request(r.in.world.Net)
	rec := opRec{kind: opDelete, phase: ph, key: m.target, id: -1, due: due, ready: -1}
	if m.upsert {
		rec.kind, rec.key = opUpsert, m.donor
	}
	rec.sent = r.now()
	status, resp, err := s.do(method, path, body)
	rec.done = r.now()
	switch {
	case err != nil:
		r.transportError("%s %s: %v", method, path, err)
	case status != http.StatusOK:
		r.transportError("%s %s: HTTP %d: %.200s", method, path, status, resp)
	default:
		id, err := r.acks.check(m, resp)
		if err != nil {
			r.or.fail("%v", err)
			break
		}
		rec.ok, rec.id = true, id
		r.mutations = append(r.mutations, applied{m: m, id: id})
	}
	f.acked(m, rec.ok, rec.id)
	r.record(rec)
}

// openLoop sends one read per schedule entry at its due time (offsets
// from the loop's start) over the senders, whichever is free first.
// Lateness of the dispatcher itself is recorded apart: it is the
// generator falling behind, not the server.
func (r *runner) openLoop(senders []*sender, sched []time.Duration, keys []int) {
	start := r.now()
	// Room for every send, so the dispatcher never waits on a busy sender.
	q := make(chan int, len(sched))
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			var scratch []byte
			for i := range q {
				r.read(s, keys[i], phMeasure, start+sched[i], -1, &scratch)
			}
		}(s)
	}
	late := make([]float64, 0, len(sched))
	for i, due := range sched {
		if d := start + due - r.now(); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(r.now()-start-due))
		q <- i
	}
	close(q)
	wg.Wait()
	r.dispatchLate = append(r.dispatchLate, late...)
}

// closedLoop runs one sender per client back to back until span elapses,
// each drawing its own Zipf key stream.
func (r *runner) closedLoop(senders []*sender, span time.Duration) {
	end := r.now() + span
	var wg sync.WaitGroup
	for ci, s := range senders {
		wg.Add(1)
		go func(ci int, s *sender) {
			defer wg.Done()
			keys := newZipfKeys(r.seed, streamClient+uint64(ci), hotSet(r.seed, len(r.in.world.Net.Carriers), r.in.w.hotKeys))
			var scratch []byte
			ready := r.now()
			for ready < end {
				r.read(s, keys.next(), phMeasure, -1, ready, &scratch)
				ready = r.now()
			}
		}(ci, s)
	}
	wg.Wait()
}

// window is what the daemon reported at the edges of the timed window:
// its CPU time and its serving-cache and ingest counters.
// mEnd is read once the probe or post-churn reads are done too.
// steal covers the timed window and the probe.
type window struct {
	cpu0, cpu1   procSample
	m0, m1, mEnd map[string]float64
	steal        *stealMonitor
}

// delta is how much counter name rose over the window.
func (w window) delta(name string) float64 { return w.m1[name] - w.m0[name] }

// deltaToEnd is how much counter name rose from the window's start to the
// end of the run.
func (w window) deltaToEnd(name string) float64 { return w.mEnd[name] - w.m0[name] }

// drive runs the workload against a ready daemon: warm-up, the timed
// window, then the ingest probe or the post-churn oracle reads.
func (r *runner) drive(d *daemon, span time.Duration) (win window, err error) {
	w := r.in.w
	senders := []*sender{newSender(d.base), newSender(d.base)}
	defer func() {
		for _, s := range senders {
			s.close()
		}
	}()
	var scratch []byte

	plan := planReads(w, r.seed, r.in.cost, span)
	for _, k := range plan.sampled {
		r.sampled[k] = true
	}
	for _, k := range plan.warm {
		r.read(senders[0], k, phWarm, -1, -1, &scratch)
	}

	metricNames := []string{"auric_cache_hits_total", "auric_cache_misses_total", "auric_cache_singleflight_shared_total",
		"auric_ingest_models_patched_total", "auric_ingest_models_refit_total"}
	if win.steal, err = startStealMonitor(r.now); err != nil {
		return
	}
	stopSteal := sync.OnceFunc(win.steal.stopMonitor)
	defer stopSteal()
	if win.m0, err = scrapeMetrics(d.base, metricNames...); err != nil {
		return
	}
	if win.cpu0, err = sampleProc(d.pid()); err != nil {
		return
	}
	switch {
	case w.churn():
		// Reads open loop on one connection, the ingest feed open loop at
		// a fixed interval on the other. Below the daemon's ingest
		// capacity, so acks time Apply and the fsync, not a backlog.
		done := make(chan struct{})
		start, every := r.now(), time.Duration(float64(time.Second)/w.feedRate)
		go func() {
			defer close(done)
			f := newFeed(r.seed, streamFeed, r.in.world.Net)
			for due := time.Duration(0); due < span; due += every {
				if d := start + due - r.now(); d > 0 {
					time.Sleep(d)
				}
				r.mutate(senders[1], f, phMeasure, start+due)
			}
		}()
		r.openLoop(senders[:1], plan.sched, plan.keys)
		<-done
	case w.openRate > 0:
		r.openLoop(senders, plan.sched, plan.keys)
	default:
		r.closedLoop(senders, span)
	}
	if win.cpu1, err = sampleProc(d.pid()); err != nil {
		return
	}
	if win.m1, err = scrapeMetrics(d.base, metricNames...); err != nil {
		return
	}
	r.checkPending()

	if w.probeOps > 0 {
		// The first mutations after the read window pay for the daemon
		// dropping its filled cache; they run untimed, like a warm-up.
		runtime.GC()
		f := newFeed(r.seed, streamProbe, r.in.world.Net)
		for i := 0; i < probeWarm+w.probeOps; i++ {
			ph := phProbe
			if i < probeWarm {
				ph = phWarm
			}
			r.mutate(senders[0], f, ph, -1)
		}
	}
	stopSteal()
	if w.churn() {
		// Quiescent answers for the oracle: each hot key twice, a
		// computed answer and then a cached one.
		for _, k := range plan.warm {
			r.read(senders[0], k, phPost, -1, -1, &scratch)
			r.read(senders[0], k, phPost, -1, -1, &scratch)
		}
	}
	if win.mEnd, err = scrapeMetrics(d.base, metricNames...); err != nil {
		return
	}
	if w.churn() {
		// Fold the live state into <journal>.snapshot for the reference.
		var status int
		var body []byte
		status, body, err = senders[0].do("POST", "/v1/compact", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("POST /v1/compact: HTTP %d: %.200s", status, body)
		}
	}
	return
}

const (
	probeWarm  = 32 // untimed mutations before the ingest probe
	warmCold   = 16 // launch-cold warm-up keys
	sampleSize = 64 // launch-cold answers compared with the reference
)

// readPlan is the key plan of one run, fixed by the seed before the daemon
// starts.
type readPlan struct {
	sched   []time.Duration // open loop: due offsets of the timed reads
	keys    []int           // open loop: carrier of each timed read
	warm    []int           // untimed warm-up reads
	sampled []int           // launch-cold: timed reads compared with the reference
}

// planReads fixes which carriers a run reads. cost is each carrier's X2
// neighbour count, which sets how many pair-wise jobs its recommend runs.
// Launch-cold reads every carrier at most once (see coldPlan). Hot
// workloads warm up on their hot set once each; their timed keys are Zipf
// draws (drawn per client when closed loop).
func planReads(w workload, seed uint64, cost []int, span time.Duration) readPlan {
	var p readPlan
	n := len(cost)
	if w.openRate > 0 {
		p.sched = arrivals(seed, w.openRate, span)
	}
	if w.hotKeys > 0 {
		p.warm = hotSet(seed, n, w.hotKeys)
		if w.openRate > 0 {
			zk := newZipfKeys(seed, streamClient, p.warm)
			p.keys = make([]int, len(p.sched))
			for i := range p.keys {
				p.keys[i] = zk.next()
			}
		}
		return p
	}
	if max := n - warmCold; len(p.sched) > max {
		p.sched = p.sched[:max]
	}
	p.keys, p.warm = coldPlan(seed, cost, len(p.sched))
	for _, i := range newRand(seed, streamSample).Perm(len(p.keys))[:min(sampleSize, len(p.keys))] {
		p.sampled = append(p.sampled, p.keys[i])
	}
	return p
}

// verify compares the collected answers with an in-process reference
// engine: for fixed-inventory workloads one started from the same inputs,
// for churn one refit from the daemon's compacted state (so the check also
// holds the daemon to "patched equals refit").
func (r *runner) verify(se *core.ShardedEngine) error {
	// Reads of fixed-inventory workloads ran before any mutation: the
	// reference is at its start state. Churn answers were taken after the
	// feed stopped, against a reference refit from the daemon's compacted
	// state.
	_, x2, _, err := se.Inventory()
	if err != nil {
		return err
	}
	for key, nbs := range r.neighbors {
		if want := x2.CarrierNeighbors(lte.CarrierID(key)); !sameNeighbors(nbs, want) {
			r.or.fail("carrier %d: served neighbours %v, reference %v", key, nbs, want)
		}
	}
	for _, key := range sortedKeys(r.samples) {
		c, nbs, err := request(se, key, r.in.w.pairwise)
		if err != nil {
			return err
		}
		recs, err := se.RecommendContext(context.Background(), c, nbs)
		if err != nil {
			return err
		}
		want := dtos(recs)
		for _, got := range r.samples[key] {
			if err := equalRecs(got.Recommendations, want); err != nil {
				r.or.fail("carrier %d: %v", key, err)
			}
		}
	}
	return nil
}

// checkCompacted verifies the daemon's compacted inventory against the
// acknowledged mutations: every clone the tail and the feed created is
// there, and exactly the deleted ones are tombstoned.
func (r *runner) checkCompacted(net *lte.Network, tombs []lte.CarrierID) {
	base := len(r.in.world.Net.Carriers)
	created, deleted := r.in.w.tail/2+r.in.w.tail%2, map[int]bool{}
	for i := 0; i < r.in.w.tail/2; i++ {
		deleted[base+i] = true
	}
	for _, a := range r.mutations {
		if a.m.upsert {
			created++
		} else {
			deleted[a.id] = true
		}
	}
	if len(net.Carriers) != base+created {
		r.or.fail("compacted inventory has %d carriers, acks created %d on %d", len(net.Carriers), created, base)
	}
	got := map[int]bool{}
	for _, id := range tombs {
		got[int(id)] = true
	}
	if len(got) != len(deleted) {
		r.or.fail("compacted inventory tombstones %d carriers, acks deleted %d", len(got), len(deleted))
	}
	for id := range deleted {
		if !got[id] {
			r.or.fail("carrier %d was deleted but is not tombstoned", id)
		}
	}
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
