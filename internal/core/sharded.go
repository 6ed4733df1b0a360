package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
)

// Shard-lifecycle metrics: load/swap cadence and the serving generation,
// the operator's view of zero-downtime reloads (OPERATIONS.md).
var (
	shardLoadSeconds = obs.Default().Histogram("auric_shard_load_seconds",
		"Wall-clock seconds per ShardedEngine.Load call (all market shards trained + swapped).", obs.DefBuckets)
	shardSwapsTotal = obs.Default().Counter("auric_shard_swaps_total",
		"Snapshot generations installed by ShardedEngine.Load or Apply.")
	shardGeneration = obs.Default().Gauge("auric_shard_generation",
		"Snapshot generation currently serving (increments on every reload).")
	shardCount = obs.Default().Gauge("auric_shard_engines",
		"Market shards (trained engines) in the serving generation.")
)

// streamAhead bounds how many stream chunks recommend concurrently ahead
// of the emitter. Chunks launch lazily in emission order, so at most
// streamAhead chunks are in flight and everything further back has not
// started — the property that lets NDJSON lines leave the server while
// the tail of a large batch is still uncomputed.
const streamAhead = 4

// defaultStreamChunk is the RecommendStream chunk size when the caller
// passes zero: large enough to amortize the per-batch encoding setup,
// small enough that the first line of a big sweep flushes early.
const defaultStreamChunk = 64

// ShardedEngine serves recommendations from one Engine per market — the
// deployment shape of the paper's 400K-carrier, 28-market network. Each
// shard trains only on its market's carriers (Options.Keep partition), so
// shard model state is a fraction of a monolithic engine's and markets
// reload independently of each other's traffic.
//
// Serving state is immutable once installed: Load trains a full shard set
// in the background, swaps one atomic pointer, and waits for requests on
// the previous generation to drain. Requests acquire the current state
// once and use it end to end, so a swap mid-request is invisible — there
// are no torn reads and no downtime.
type ShardedEngine struct {
	schema *paramspec.Schema
	opts   Options
	gen    atomic.Int64
	state  atomic.Pointer[shardState]
	// loadMu serializes Load calls; the serving path never takes it.
	loadMu sync.Mutex
	// watcher holds the optional model-quality Observer (observer.go).
	watcher atomic.Pointer[observerBox]
	// cache memoizes materialized recommendation sets per generation
	// (cache.go); nil when Options.CacheEntries is zero.
	cache *recCache
}

// shardState is one immutable serving generation: the snapshot inventory
// and its trained per-market engines, plus the drain bookkeeping.
type shardState struct {
	gen int64
	net *lte.Network
	x2  *geo.Graph
	cfg *lte.Config
	// dead marks carriers tombstoned by live ingest (Apply); they keep
	// their Carriers slot but serve no evidence and reject further
	// upserts. nil (empty) for generations installed by Load.
	dead   *tombSet
	shards []*Engine // indexed by market id; nil for carrier-less markets
	// refs counts the installed reference (1) plus every in-flight
	// request; when it reaches zero after retirement the generation is
	// drained.
	refs      atomic.Int64
	drainOnce sync.Once
	drained   chan struct{}
}

func (st *shardState) release() {
	if st.refs.Add(-1) == 0 {
		st.drainOnce.Do(func() { close(st.drained) })
	}
}

// NewSharded creates an empty sharded engine over the schema. opts apply
// to every shard; Options.Keep, when set, composes with each shard's
// market partition. Call Load before serving.
func NewSharded(schema *paramspec.Schema, opts Options) *ShardedEngine {
	se := &ShardedEngine{schema: schema, opts: opts}
	if opts.CacheEntries > 0 {
		se.cache = newRecCache(opts.CacheEntries)
	}
	return se
}

// CacheStats reports the memo cache's counters (zero-valued with
// Enabled=false when the engine was built without a cache).
func (se *ShardedEngine) CacheStats() CacheStats { return se.cache.stats() }

// Schema returns the engine's parameter schema.
func (se *ShardedEngine) Schema() *paramspec.Schema { return se.schema }

// Load trains one engine per market of the snapshot and installs the
// shard set atomically: requests arriving after Load returns (and any
// arriving after the internal swap) serve from the new generation, while
// requests already in flight finish on the old one. Load returns the new
// generation number once the previous generation has fully drained, so a
// successful return means no request is still reading retired state. On
// error the serving state is untouched.
func (se *ShardedEngine) Load(net *lte.Network, x2 *geo.Graph, cfg *lte.Config) (int64, error) {
	se.loadMu.Lock()
	defer se.loadMu.Unlock()
	defer obs.Since(shardLoadSeconds, time.Now())
	st := &shardState{gen: se.gen.Load() + 1, net: net, x2: x2, cfg: cfg, drained: make(chan struct{})}
	st.shards = make([]*Engine, len(net.Markets))
	carriers := make([]int, len(net.Markets))
	for i := range net.Carriers {
		if m := net.Carriers[i].Market; m >= 0 && m < len(carriers) {
			carriers[m]++
		}
	}
	trained := 0
	for m := range net.Markets {
		if carriers[m] == 0 {
			continue
		}
		opts := se.opts
		opts.Keep = se.marketKeep(net, nil, m)
		eng := New(se.schema, opts)
		if err := eng.Train(net, x2, cfg); err != nil {
			return 0, fmt.Errorf("core: training shard for market %d: %w", m, err)
		}
		st.shards[m] = eng
		trained++
	}
	if trained == 0 {
		return 0, fmt.Errorf("core: snapshot has no carriers in any of its %d markets", len(net.Markets))
	}
	se.swap(st, trained)
	if o := se.observer(); o != nil {
		o.ObserveLoad(st.gen, net, x2, cfg)
	}
	return st.gen, nil
}

// swap installs a new serving generation of trained shards (Load and
// Apply, under loadMu) and returns once the previous one has drained.
// The new generation is part of every cache key, so stale entries can
// never hit — patched or retrained models start cold by construction; the
// cache reset just reclaims their memory immediately.
func (se *ShardedEngine) swap(st *shardState, trained int) {
	st.refs.Store(1)
	se.gen.Store(st.gen)
	old := se.state.Swap(st)
	shardSwapsTotal.Inc()
	shardGeneration.Set(float64(st.gen))
	shardCount.Set(float64(trained))
	se.cache.reset()
	if old != nil {
		old.release() // drop the installed reference; in-flight requests hold theirs
		<-old.drained
	}
}

// acquire pins the current serving generation. The retry loop closes the
// race between loading the pointer and taking the reference: if the state
// was swapped out (or even fully drained) in between, the stale reference
// is dropped and the new state acquired instead.
func (se *ShardedEngine) acquire() (*shardState, error) {
	for {
		st := se.state.Load()
		if st == nil {
			return nil, fmt.Errorf("core: sharded engine not loaded")
		}
		if st.refs.Add(1) <= 1 {
			// The generation retired and drained before our Add landed;
			// undo it without re-closing the drain channel.
			st.refs.Add(-1)
			continue
		}
		if se.state.Load() == st {
			return st, nil
		}
		st.release()
	}
}

// Generation reports the serving snapshot generation (0 before Load).
func (se *ShardedEngine) Generation() int64 { return se.gen.Load() }

// Inventory returns the serving snapshot's network, X2 graph and
// generation. The returned structures are immutable serving state; they
// stay valid after a reload (the reload swaps in new ones).
func (se *ShardedEngine) Inventory() (*lte.Network, *geo.Graph, int64, error) {
	st, err := se.acquire()
	if err != nil {
		return nil, nil, 0, err
	}
	defer st.release()
	return st.net, st.x2, st.gen, nil
}

// ShardSizes reports the carriers served by each market shard in the
// current generation, indexed by market id (0 for untrained markets).
func (se *ShardedEngine) ShardSizes() ([]int, error) {
	st, err := se.acquire()
	if err != nil {
		return nil, err
	}
	defer st.release()
	sizes := make([]int, len(st.shards))
	for i := range st.net.Carriers {
		if m := st.net.Carriers[i].Market; m >= 0 && m < len(sizes) && st.shards[m] != nil {
			sizes[m]++
		}
	}
	return sizes, nil
}

// shardFor routes one carrier to its market's engine.
func (st *shardState) shardFor(c *lte.Carrier) (*Engine, error) {
	m := c.Market
	if m < 0 || m >= len(st.shards) {
		return nil, fmt.Errorf("core: carrier %d references market %d outside the %d loaded shards", c.ID, m, len(st.shards))
	}
	if st.shards[m] == nil {
		return nil, fmt.Errorf("core: market %d has no trained shard", m)
	}
	return st.shards[m], nil
}

// Recommend routes one carrier's recommendation to its market shard.
func (se *ShardedEngine) Recommend(c *lte.Carrier, neighbors []lte.CarrierID) ([]Recommendation, error) {
	return se.RecommendContext(context.Background(), c, neighbors)
}

// RecommendContext routes one carrier to its market shard, pinning the
// serving generation for the duration of the call.
func (se *ShardedEngine) RecommendContext(ctx context.Context, c *lte.Carrier, neighbors []lte.CarrierID) ([]Recommendation, error) {
	var res BatchResult
	err := se.serve(ctx, []BatchItem{{Carrier: c, Neighbors: neighbors}}, 1, func(_ int, r BatchResult) { res = r })
	if err != nil {
		return nil, err
	}
	return res.Recommendations, res.Err
}

// RecommendBatch answers a multi-market batch in one generation: items
// group by market, each market's sub-batch runs as one Engine fan-out,
// and up to streamAhead markets recommend concurrently. Every item's
// result lands in its request-order slot; routing failures (unknown
// market, untrained shard) are per-item errors, exactly like engine item
// errors.
func (se *ShardedEngine) RecommendBatch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	results := make([]BatchResult, len(items))
	err := se.serve(ctx, items, max(len(items), 1), func(i int, r BatchResult) { results[i] = r })
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RecommendStream recommends for items and emits each result through emit
// in strict request order as it becomes available, without waiting for
// the whole batch — the engine side of NDJSON batch streaming. Items are
// planned into per-market chunks of chunk items (0 means the default
// chunk size), so early results emit while the tail of a 10K-carrier
// sweep has not even started. emit runs on the calling goroutine; a slow
// consumer delays later lines, it never reorders output.
func (se *ShardedEngine) RecommendStream(ctx context.Context, items []BatchItem, chunk int, emit func(i int, res BatchResult)) error {
	if chunk <= 0 {
		chunk = defaultStreamChunk
	}
	return se.serve(ctx, items, chunk, emit)
}

// servePlan is the pooled per-call state of serve: a copy of the items
// (computing goroutines read it, so the caller's slice never escapes),
// one slot per item, and the chunks the misses compute in.
type servePlan struct {
	items  []BatchItem
	slots  []serveSlot
	chunks []serveChunk
	open   []int // per market: 1 + index of its open chunk, 0 for none
}

// serveSlot is one item's progress through serve.
type serveSlot struct {
	eng   *Engine
	chunk int     // index of the chunk computing the item, -1 for none
	fl    *flight // the key's in-flight computation on a cache miss
	res   BatchResult
}

// serveChunk is one per-market Engine.RecommendBatch call over idx.
type serveChunk struct {
	eng  *Engine
	idx  []int
	done chan struct{}
}

var servePlans = sync.Pool{New: func() any { return new(servePlan) }}

// serve is the one serving core behind RecommendContext, RecommendBatch
// and RecommendStream. It pins the serving generation and routes every
// item to its market shard, answers cache hits, and joins every repeated
// key — within the call or across concurrent calls — to one in-flight
// computation (recCache.lookup). The remaining items compute in
// per-market chunks of at most chunk items, launched in request order
// with at most streamAhead in flight; each result goes to emit on the
// calling goroutine, in request order, as soon as it is ready.
func (se *ShardedEngine) serve(ctx context.Context, items []BatchItem, chunk int, emit func(i int, res BatchResult)) error {
	st, err := se.acquire()
	if err != nil {
		return err
	}
	defer st.release()
	p := servePlans.Get().(*servePlan)
	defer p.recycle()
	p.items = append(p.items[:0], items...)
	p.slots = slices.Grow(p.slots[:0], len(items))[:len(items)]
	p.open = slices.Grow(p.open[:0], len(st.shards))[:len(st.shards)]
	clear(p.open)
	for i := range p.slots {
		s := &p.slots[i]
		s.chunk = -1
		c := p.items[i].Carrier
		s.eng, s.res.Err = st.shardFor(c)
		if s.res.Err != nil {
			continue
		}
		if se.cache != nil {
			var lead bool
			if s.res.Recommendations, s.fl, lead = se.lookup(st.gen, &p.items[i]); !lead {
				continue // a hit, or joined another computation of the key
			}
		}
		k := p.open[c.Market] - 1
		if k < 0 || len(p.chunks[k].idx) >= chunk {
			k = len(p.chunks)
			p.chunks = append(p.chunks, serveChunk{eng: s.eng, done: make(chan struct{})})
			p.open[c.Market] = k + 1
		}
		p.chunks[k].idx = append(p.chunks[k].idx, i)
		s.chunk = k
	}
	if len(p.chunks) > 0 {
		se.launch(ctx, p)
	}
	o := se.observer()
	for i := range p.slots {
		s := &p.slots[i]
		if s.chunk >= 0 {
			<-p.chunks[s.chunk].done
		} else if s.fl != nil {
			se.join(ctx, st, p, i)
		}
		if o != nil && s.res.Err == nil && len(s.res.Recommendations) > 0 {
			o.ObserveServed(p.items[i].Carrier.Market, p.items[i].Carrier, s.res.Recommendations)
		}
		emit(i, s.res)
	}
	return nil
}

// lookup builds an item's cache key in generation gen and looks it up
// (recCache.lookup).
func (se *ShardedEngine) lookup(gen int64, it *BatchItem) ([]Recommendation, *flight, bool) {
	kb := keyBufs.Get().(*[]byte)
	*kb = appendCacheKey((*kb)[:0], gen, it.Carrier, it.Neighbors)
	recs, fl, lead := se.cache.lookup(*kb)
	keyBufs.Put(kb)
	return recs, fl, lead
}

// join settles an item that joined another computation of its key: it
// shares the leader's answer, or, when the leader failed, looks the key up
// again and computes it itself if it leads now — so one cancelled request
// cannot poison the requests that piled up behind it.
func (se *ShardedEngine) join(ctx context.Context, st *shardState, p *servePlan, i int) {
	s := &p.slots[i]
	for s.fl != nil {
		<-s.fl.done
		if s.fl.err == nil {
			se.cache.countShared()
			s.res = BatchResult{Recommendations: s.fl.recs}
			return
		}
		var lead bool
		if s.res.Recommendations, s.fl, lead = se.lookup(st.gen, &p.items[i]); lead {
			se.compute(ctx, p, s.eng, []int{i})
			return
		}
	}
}

// launch starts the plan's chunks in planning order, never more than
// streamAhead in flight. Acquiring the slot before the goroutine starts
// keeps the launch order deterministic. The launcher reads only its own
// copy of the chunk list, so it never touches the plan after the last
// chunk closes and serve recycles it.
func (se *ShardedEngine) launch(ctx context.Context, p *servePlan) {
	chunks := p.chunks
	sem := make(chan struct{}, streamAhead)
	go func() {
		for k := range chunks {
			sem <- struct{}{}
			go func(c *serveChunk) {
				defer func() { <-sem }()
				defer close(c.done)
				se.compute(ctx, p, c.eng, c.idx)
			}(&chunks[k])
		}
	}()
}

// compute recommends the items idx of the plan in one Engine fan-out and
// settles their slots: with the cache on, each one counts a miss, and an
// item leading its key's flight finishes it (caching a success).
func (se *ShardedEngine) compute(ctx context.Context, p *servePlan, eng *Engine, idx []int) {
	sub := make([]BatchItem, len(idx))
	for j, i := range idx {
		sub[j] = p.items[i]
	}
	res, err := eng.RecommendBatch(ctx, sub)
	for j, i := range idx {
		s := &p.slots[i]
		if err != nil {
			s.res = BatchResult{Err: err}
		} else {
			s.res = res[j]
		}
		if se.cache != nil {
			se.cache.countMiss()
			if s.fl != nil {
				se.cache.finish(s.fl, s.res.Recommendations, s.res.Err)
			}
		}
	}
}

// recycle clears the plan (no retained pointers) and returns it to the
// pool. serve calls it only after every chunk has closed.
func (p *servePlan) recycle() {
	clear(p.items)
	clear(p.slots)
	clear(p.chunks)
	p.items, p.slots, p.chunks = p.items[:0], p.slots[:0], p.chunks[:0]
	servePlans.Put(p)
}
