package core

// Engine-level benchmarks: Train (all parameter models fitted over the
// shared attribute base) and Recommend (every parameter of one carrier,
// including pair-wise parameters for its X2 neighbors). These bound the
// serving path that auricd exposes; results are tracked in EXPERIMENTS.md
// and BENCH_cf.json.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"auric/internal/lte"
	"auric/internal/netsim"
)

var (
	engineBenchOnce  sync.Once
	engineBenchWorld *netsim.World
)

func benchWorld(b *testing.B) *netsim.World {
	b.Helper()
	engineBenchOnce.Do(func() {
		engineBenchWorld = netsim.Generate(netsim.Options{Seed: 11, Markets: 4, ENodeBsPerMarket: 30})
	})
	return engineBenchWorld
}

func BenchmarkEngineTrain(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(w.Schema, Options{Workers: 1})
		if err := e.Train(w.Net, w.X2, w.Current); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineRecommend(b *testing.B) {
	w := benchWorld(b)
	e := New(w.Schema, Options{Workers: 1})
	if err := e.Train(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	c := &w.Net.Carriers[10]
	nbs := w.X2.CarrierNeighbors(c.ID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Recommend(c, nbs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendCached measures the generation-keyed cache's hit path:
// one warm-up request materializes the answer, then every iteration serves
// the same (generation, carrier, neighbors) key from the memo. This is the
// steady-state cost of repeat traffic and should sit orders of magnitude
// below BenchmarkEngineRecommend's full compute.
func BenchmarkRecommendCached(b *testing.B) {
	w := benchWorld(b)
	se := NewSharded(w.Schema, Options{Workers: 1, CacheEntries: 1024})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	c := &w.Net.Carriers[10]
	nbs := w.X2.CarrierNeighbors(c.ID)
	if _, err := se.Recommend(c, nbs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := se.Recommend(c, nbs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := se.CacheStats(); st.Hits < uint64(b.N) {
		b.Fatalf("expected >= %d cache hits, got %d", b.N, st.Hits)
	}
}

// BenchmarkRecommendColdAllocs measures the cache-miss (cold compute) path
// with the cache enabled: a deliberately tiny cache and a carrier cycle
// wider than its capacity force every request through the full compute plus
// a key build, a put, and an eviction. allocs/op here is the figure the
// serving-path allocation sweep targets; compare against the committed
// BenchmarkEngineRecommend baseline.
func BenchmarkRecommendColdAllocs(b *testing.B) {
	w := benchWorld(b)
	se := NewSharded(w.Schema, Options{Workers: 1, CacheEntries: 16})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	carriers := w.Net.Carriers
	if len(carriers) < 64 {
		b.Fatalf("bench world too small: %d carriers", len(carriers))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &carriers[i%64]
		if _, err := se.Recommend(c, w.X2.CarrierNeighbors(c.ID)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := se.CacheStats(); b.N >= 128 && st.Misses < uint64(b.N)/2 {
		b.Fatalf("cold bench unexpectedly warm: %d misses over %d ops", st.Misses, b.N)
	}
}

// BenchmarkIngestUpsert measures absorbing one carrier through live ingest:
// each iteration applies a delta with one fresh carrier (cloned from a
// donor, fully configured, pair relations included) plus the tombstone of
// the carrier added by the previous iteration, so the live inventory stays
// at steady state. Compare against BenchmarkIngestRefit — the from-scratch
// reload the incremental path replaces — for the speedup EXPERIMENTS.md
// tracks.
func BenchmarkIngestUpsert(b *testing.B) {
	w := benchWorld(b)
	se := NewSharded(w.Schema, Options{Workers: 1})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	u := donorUpsert(w.Schema, w.Net, w.X2, w.Current, 5)
	prev := lte.CarrierID(-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Delta{Upserts: []Upsert{u}}
		if prev >= 0 {
			d.Tombstones = []lte.CarrierID{prev}
		}
		res, err := se.Apply(d)
		if err != nil {
			b.Fatal(err)
		}
		prev = res.Assigned[0]
	}
}

// BenchmarkIngestRefit is the non-incremental baseline for the same change:
// a full ShardedEngine.Load retraining every market shard from scratch.
func BenchmarkIngestRefit(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se := NewSharded(w.Schema, Options{Workers: 1})
		if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendBatch measures the batched serving path at three batch
// sizes: each iteration recommends every parameter (pair-wise included)
// for n carriers in one RecommendBatch fan-out, amortizing query encoding
// and scratch reuse across the batch. The per-carrier figure is reported
// as the carrier-us metric for comparison against BenchmarkEngineRecommend.
func BenchmarkRecommendBatch(b *testing.B) {
	w := benchWorld(b)
	e := New(w.Schema, Options{Workers: 1})
	if err := e.Train(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("carriers=%d", n), func(b *testing.B) {
			items := make([]BatchItem, n)
			for i := range items {
				c := &w.Net.Carriers[i%len(w.Net.Carriers)]
				items[i] = BatchItem{Carrier: c, Neighbors: w.X2.CarrierNeighbors(c.ID)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.RecommendBatch(context.Background(), items)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "carrier-us")
		})
	}
}

var (
	wideBenchOnce  sync.Once
	wideBenchWorld *netsim.World
)

// BenchmarkIngestUpsertWide measures live ingest on a 28-market world (the
// paper's market count, 30 eNodeBs each) with the feed of perfbench's
// ingest workloads: operations alternate between the upsert of a
// carrier-only clone of a donor (no configuration values, so its singular
// parameters start at their minimum; the donor's market rotates) and the
// tombstone of that clone. One op is one Apply. Against
// BenchmarkIngestUpsert it shows what the rest of the network costs each
// delta: the work an Apply does outside the touched market.
func BenchmarkIngestUpsertWide(b *testing.B) {
	wideBenchOnce.Do(func() {
		wideBenchWorld = netsim.Generate(netsim.Options{Seed: 11, Markets: 28, ENodeBsPerMarket: 30})
	})
	w := wideBenchWorld
	se := NewSharded(w.Schema, Options{Workers: 1})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	donors := make([][]lte.CarrierID, len(w.Net.Markets))
	for i := range w.Net.Carriers {
		m := w.Net.Carriers[i].Market
		donors[m] = append(donors[m], lte.CarrierID(i))
	}
	prev := lte.CarrierID(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d Delta
		if prev >= 0 {
			d.Tombstones = []lte.CarrierID{prev}
		} else {
			ids := donors[(i/2)%len(donors)]
			c := w.Net.Carriers[ids[(i/2)%len(ids)]]
			c.ID = -1
			d.Upserts = []Upsert{{Carrier: c}}
		}
		res, err := se.Apply(d)
		if err != nil {
			b.Fatal(err)
		}
		prev = -1
		if len(d.Upserts) > 0 {
			prev = res.Assigned[0]
		}
	}
}
