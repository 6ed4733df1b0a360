package core

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"auric/internal/dataset"
	"auric/internal/geo"
	"auric/internal/learn"
	"auric/internal/lte"
	"auric/internal/netsim"
)

// shardedWorld generates a small multi-market world and a loaded sharded
// engine over it.
func shardedWorld(t *testing.T, markets int) (*netsim.World, *ShardedEngine) {
	t.Helper()
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: markets, ENodeBsPerMarket: 8})
	se := NewSharded(w.Schema, Options{Local: true})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	return w, se
}

// marketEngine trains a plain single engine restricted to one market —
// the unsharded reference the routing must be indistinguishable from.
func marketEngine(t *testing.T, w *netsim.World, market int) *Engine {
	t.Helper()
	eng := New(w.Schema, Options{Local: true, Keep: func(id lte.CarrierID) bool {
		return w.Net.Carriers[id].Market == market
	}})
	if err := eng.Train(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestShardedEquivalence pins sharded routing to the single-engine path:
// for every sampled carrier (singular and pair-wise), the ShardedEngine's
// recommendations — including every Diag-derived evidence field — are
// DeepEqual to those of a dedicated unsharded engine trained on the same
// market partition. The comparisons run concurrently so `go test -race`
// gates the serving path's immutability.
func TestShardedEquivalence(t *testing.T) {
	const markets = 3
	w, se := shardedWorld(t, markets)
	singles := make([]*Engine, markets)
	for m := 0; m < markets; m++ {
		singles[m] = marketEngine(t, w, m)
	}

	var carriers []lte.CarrierID
	perMarket := make([]int, markets)
	for id := range w.Net.Carriers {
		m := w.Net.Carriers[id].Market
		if perMarket[m] < 4 {
			perMarket[m]++
			carriers = append(carriers, lte.CarrierID(id))
		}
	}

	var wg sync.WaitGroup
	for _, id := range carriers {
		wg.Add(1)
		go func(id lte.CarrierID) {
			defer wg.Done()
			c := &w.Net.Carriers[id]
			neighbors := w.X2.CarrierNeighbors(id)
			want, err := singles[c.Market].Recommend(c, neighbors)
			if err != nil {
				t.Errorf("carrier %d: single engine: %v", id, err)
				return
			}
			got, err := se.Recommend(c, neighbors)
			if err != nil {
				t.Errorf("carrier %d: sharded engine: %v", id, err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("carrier %d: sharded recommendations differ from the single-engine path", id)
			}
		}(id)
	}
	wg.Wait()

	// The multi-market batch path must agree item by item, and the stream
	// path must agree with the batch path.
	items := make([]BatchItem, len(carriers))
	for i, id := range carriers {
		items[i] = BatchItem{Carrier: &w.Net.Carriers[id], Neighbors: w.X2.CarrierNeighbors(id)}
	}
	batch, err := se.RecommendBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make([]BatchResult, len(items))
	emitted := 0
	err = se.RecommendStream(context.Background(), items, 2, func(i int, res BatchResult) {
		if i != emitted {
			t.Errorf("stream emitted item %d, want %d (strict request order)", i, emitted)
		}
		emitted++
		streamed[i] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != len(items) {
		t.Fatalf("stream emitted %d of %d items", emitted, len(items))
	}
	for i, id := range carriers {
		c := &w.Net.Carriers[id]
		want, err := singles[c.Market].Recommend(c, items[i].Neighbors)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil {
			t.Fatalf("batch item %d: %v", i, batch[i].Err)
		}
		if !reflect.DeepEqual(batch[i].Recommendations, want) {
			t.Errorf("batch item %d (carrier %d) differs from the single-engine path", i, id)
		}
		if !reflect.DeepEqual(streamed[i], batch[i]) {
			t.Errorf("streamed item %d differs from the batch path", i)
		}
	}
}

// TestShardedHotReload hammers the serving path from many goroutines
// while snapshots swap in a loop: every request must complete with a full
// recommendation set and zero errors (the HTTP layer's "zero 5xx"), the
// race detector must see no torn reads, and each Load must return only
// after the generation it retired has drained.
func TestShardedHotReload(t *testing.T) {
	w, se := shardedWorld(t, 2)
	ids := []lte.CarrierID{0, 3, 7, 11, lte.CarrierID(len(w.Net.Carriers) - 1)}

	stop := make(chan struct{})
	var requests, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(g+i)%len(ids)]
				c := &w.Net.Carriers[id]
				if i%5 == 0 {
					res, err := se.RecommendBatch(context.Background(),
						[]BatchItem{{Carrier: c}, {Carrier: &w.Net.Carriers[ids[(g+i+1)%len(ids)]]}})
					requests.Add(1)
					if err != nil || res[0].Err != nil || res[1].Err != nil {
						failures.Add(1)
					}
					continue
				}
				recs, err := se.Recommend(c, nil)
				requests.Add(1)
				if err != nil || len(recs) != 39 {
					failures.Add(1)
				}
			}
		}(g)
	}

	gen := se.Generation()
	for i := 0; i < 4; i++ {
		old := se.state.Load()
		g, err := se.Load(w.Net, w.X2, w.Current)
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if g != gen+int64(i)+1 {
			t.Fatalf("reload %d: generation %d, want %d", i, g, gen+int64(i)+1)
		}
		// Load returned, so the retired generation must be fully drained.
		select {
		case <-old.drained:
		default:
			t.Fatalf("reload %d returned before the old generation drained", i)
		}
		if n := old.refs.Load(); n != 0 {
			t.Fatalf("reload %d: retired generation still holds %d refs", i, n)
		}
	}
	close(stop)
	wg.Wait()

	if requests.Load() == 0 {
		t.Fatal("hammer issued no requests")
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during hot reload, want 0", n, requests.Load())
	}
	// The final generation holds only its installed reference.
	if n := se.state.Load().refs.Load(); n != 1 {
		t.Fatalf("serving generation refs = %d after drain, want 1", n)
	}
}

// slowLearner fits models whose every prediction sleeps — enough to make
// stream progress observable without touching the CF machinery.
type slowLearner struct {
	delay    time.Duration
	predicts *atomic.Int64
}

type slowModel struct {
	delay    time.Duration
	predicts *atomic.Int64
}

func (l slowLearner) Name() string { return "slow" }
func (l slowLearner) Fit(t *dataset.Table) (learn.Model, error) {
	return slowModel{delay: l.delay, predicts: l.predicts}, nil
}
func (m slowModel) Predict(row []string) learn.Prediction {
	m.predicts.Add(1)
	time.Sleep(m.delay)
	return learn.Prediction{Label: "1", Confidence: 1, Explanation: "slow"}
}

// TestRecommendStreamProgress proves streaming is incremental: with
// one-item chunks, the first emitted result arrives while most of the
// batch is still uncomputed (the lazy launch window keeps later chunks
// unstarted), and emission covers every item exactly once, in order.
func TestRecommendStreamProgress(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 5, Markets: 1, ENodeBsPerMarket: 6})
	var predicts atomic.Int64
	se := NewSharded(w.Schema, Options{Learner: slowLearner{delay: 500 * time.Microsecond, predicts: &predicts}})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}

	const n = 32
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Carrier: &w.Net.Carriers[i%len(w.Net.Carriers)]}
	}
	total := int64(n * len(w.Schema.Singular()))
	var atFirstEmit int64 = -1
	emitted := 0
	err := se.RecommendStream(context.Background(), items, 1, func(i int, res BatchResult) {
		if i != emitted {
			t.Errorf("emitted item %d, want %d", i, emitted)
		}
		emitted++
		if atFirstEmit < 0 {
			atFirstEmit = predicts.Load()
		}
		if res.Err != nil {
			t.Errorf("item %d: %v", i, res.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != n {
		t.Fatalf("emitted %d of %d items", emitted, n)
	}
	if p := predicts.Load(); p != total {
		t.Fatalf("predicts = %d, want %d", p, total)
	}
	if atFirstEmit >= total {
		t.Fatalf("first line emitted only after all %d predictions finished — stream is not incremental", total)
	}
}

// TestShardedRouting pins the error surface: serving before Load fails,
// an out-of-range market fails the request (or its batch slot) without
// touching its siblings.
func TestShardedRouting(t *testing.T) {
	w, se := shardedWorld(t, 2)

	empty := NewSharded(w.Schema, Options{Local: true})
	if _, err := empty.Recommend(&w.Net.Carriers[0], nil); err == nil {
		t.Error("recommend before Load did not fail")
	}

	ghost := w.Net.Carriers[0]
	ghost.Market = 99
	if _, err := se.Recommend(&ghost, nil); err == nil {
		t.Error("out-of-range market did not fail")
	}

	res, err := se.RecommendBatch(context.Background(), []BatchItem{
		{Carrier: &w.Net.Carriers[0]},
		{Carrier: &ghost},
		{Carrier: &w.Net.Carriers[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || len(res[0].Recommendations) == 0 {
		t.Errorf("item 0 = %+v, want recommendations", res[0].Err)
	}
	if res[1].Err == nil {
		t.Error("ghost-market batch item did not carry an error")
	}
	if res[2].Err != nil || len(res[2].Recommendations) == 0 {
		t.Errorf("item 2 = %+v, want recommendations", res[2].Err)
	}

	sizes, err := se.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	if len(sizes) != 2 || sum != len(w.Net.Carriers) {
		t.Errorf("shard sizes %v do not cover the %d carriers", sizes, len(w.Net.Carriers))
	}
}

// servedCounter is an Observer that counts ObserveServed calls per carrier.
type servedCounter struct {
	mu     sync.Mutex
	served map[lte.CarrierID]int
}

func (o *servedCounter) ObserveLoad(int64, *lte.Network, *geo.Graph, *lte.Config)           {}
func (o *servedCounter) ObserveApply(int64, *lte.Network, []lte.CarrierID, []lte.CarrierID) {}
func (o *servedCounter) ObserveServed(_ int, c *lte.Carrier, _ []Recommendation) {
	o.mu.Lock()
	o.served[c.ID]++
	o.mu.Unlock()
}

// TestServeEntryPointParity runs the same items — two distinct carriers,
// one of them repeated, and a carrier whose market has no trained shard —
// through each serving entry point of a fresh cached engine, twice (cold,
// then warm). Every entry point must return the same results, per-item
// errors included, and report the same ObserveServed calls; the batch and
// the stream must also agree on the cache accounting, computing the
// repeated carrier once and sharing it with its repeat.
func TestServeEntryPointParity(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: 2, ENodeBsPerMarket: 6})
	empty := len(w.Net.Markets)
	w.Net.Markets = append(w.Net.Markets, lte.Market{ID: empty, Name: "greenfield", Timezone: "Pacific"})
	ghost := w.Net.Carriers[0]
	ghost.Market = empty
	a, b := &w.Net.Carriers[3], &w.Net.Carriers[len(w.Net.Carriers)-1]
	items := []BatchItem{
		{Carrier: a, Neighbors: w.X2.CarrierNeighbors(a.ID)},
		{Carrier: b, Neighbors: w.X2.CarrierNeighbors(b.ID)},
		{Carrier: a, Neighbors: w.X2.CarrierNeighbors(a.ID)},
		{Carrier: &ghost},
	}

	entries := []struct {
		name string
		run  func(se *ShardedEngine) []BatchResult
	}{
		{"context", func(se *ShardedEngine) []BatchResult {
			out := make([]BatchResult, len(items))
			for i, it := range items {
				out[i].Recommendations, out[i].Err = se.RecommendContext(context.Background(), it.Carrier, it.Neighbors)
			}
			return out
		}},
		{"batch", func(se *ShardedEngine) []BatchResult {
			out, err := se.RecommendBatch(context.Background(), items)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"stream", func(se *ShardedEngine) []BatchResult {
			out := make([]BatchResult, len(items))
			if err := se.RecommendStream(context.Background(), items, 1, func(i int, res BatchResult) {
				out[i] = res
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	var (
		wantResults [2][]BatchResult
		wantServed  map[lte.CarrierID]int
		stats       = map[string]CacheStats{}
	)
	for _, ep := range entries {
		se := NewSharded(w.Schema, Options{Local: true, Workers: 1, CacheEntries: 64})
		counter := &servedCounter{served: map[lte.CarrierID]int{}}
		se.SetObserver(counter)
		if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
			t.Fatal(err)
		}
		before := se.CacheStats()
		for pass := range wantResults {
			got := ep.run(se)
			if got[3].Err == nil {
				t.Fatalf("%s pass %d: carrier of an untrained market served without error", ep.name, pass)
			}
			if wantResults[pass] == nil {
				wantResults[pass] = got
			} else if !reflect.DeepEqual(got, wantResults[pass]) {
				t.Errorf("%s pass %d: results differ from %s", ep.name, pass, entries[0].name)
			}
		}
		if !reflect.DeepEqual(wantResults[0], wantResults[1]) {
			t.Errorf("%s: warm pass differs from the cold pass", ep.name)
		}
		if wantServed == nil {
			wantServed = counter.served
		} else if !reflect.DeepEqual(counter.served, wantServed) {
			t.Errorf("%s: ObserveServed calls %v, want %v", ep.name, counter.served, wantServed)
		}
		after := se.CacheStats()
		stats[ep.name] = CacheStats{
			Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
			SingleflightShared: after.SingleflightShared - before.SingleflightShared,
			Evictions:          after.Evictions - before.Evictions,
			Invalidations:      after.Invalidations - before.Invalidations,
			Entries:            after.Entries - before.Entries,
		}
	}
	if want := (map[lte.CarrierID]int{a.ID: 4, b.ID: 2}); !reflect.DeepEqual(wantServed, want) {
		t.Errorf("ObserveServed calls %v, want %v", wantServed, want)
	}
	if stats["batch"] != stats["stream"] {
		t.Errorf("cache deltas differ: batch %+v, stream %+v", stats["batch"], stats["stream"])
	}
	if st := stats["stream"]; st.Misses != 2 || st.SingleflightShared != 1 || st.Hits != 3 {
		t.Errorf("stream cache delta %+v, want 2 misses, 1 shared, 3 hits", st)
	}
}

// TestServeConcurrentCollapse races all three entry points over the same
// keys on a cold cache: every distinct key must compute exactly once —
// repeats within a call and across concurrent calls join one flight — and
// every answer must equal the uncached engine's.
func TestServeConcurrentCollapse(t *testing.T) {
	w, cached, plain := cachedPair(t, 2, 64)
	var items []BatchItem
	for _, id := range []lte.CarrierID{4, 9, 4, lte.CarrierID(len(w.Net.Carriers) - 1), 9} {
		items = append(items, BatchItem{Carrier: &w.Net.Carriers[id], Neighbors: w.X2.CarrierNeighbors(id)})
	}
	want, err := plain.RecommendBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	check := func(who string, got []BatchResult) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results differ from the uncached engine", who)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			switch g % 3 {
			case 0:
				got := make([]BatchResult, len(items))
				for i, it := range items {
					got[i].Recommendations, got[i].Err = cached.Recommend(it.Carrier, it.Neighbors)
				}
				check("context", got)
			case 1:
				got, err := cached.RecommendBatch(context.Background(), items)
				if err != nil {
					t.Error(err)
					return
				}
				check("batch", got)
			case 2:
				got := make([]BatchResult, len(items))
				if err := cached.RecommendStream(context.Background(), items, 1, func(i int, res BatchResult) {
					got[i] = res
				}); err != nil {
					t.Error(err)
					return
				}
				check("stream", got)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	st := cached.CacheStats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (one per distinct key)", st.Misses)
	}
	if total := st.Hits + st.Misses + st.SingleflightShared; total != uint64(9*len(items)) {
		t.Errorf("hits+misses+shared = %d, want %d", total, 9*len(items))
	}
}
