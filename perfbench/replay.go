package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"auric/internal/core"
	"auric/internal/journal"
	"auric/internal/learn"
	"auric/internal/lte"
)

// The replay caps keep a traced run within its time limit on the slowest
// workload (launch-cold reads, ingest-churn mutations).
const (
	maxReplayReads     = 400 // reads replayed in process, first in send order
	maxReplayMutations = 120 // mutations replayed in process, first in send order
	hitProbe           = 32  // re-requested keys when the replay saw few hits
	cfKeys             = 32  // distinct carriers decomposed into cf calls
)

// replayOps picks the operations the in-process replay repeats: the
// warm-up, timed and probe operations in the order they were sent, the
// first maxReplayReads reads and maxReplayMutations mutations. A prefix of
// the mutations never holds a delete without the upsert it undoes.
func replayOps(recs []opRec) []opRec {
	sorted := append([]opRec(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].sent < sorted[j].sent })
	var out []opRec
	reads, mutations := 0, 0
	for _, r := range sorted {
		if r.phase == phPost || !r.ok {
			continue
		}
		n, limit := &mutations, maxReplayMutations
		if r.kind == opRead {
			n, limit = &reads, maxReplayReads
		}
		if *n == limit {
			continue
		}
		*n++
		out = append(out, r)
	}
	return out
}

// replayStats is what one in-process replay measured.
type replayStats struct {
	wall           time.Duration
	hits, misses   uint64 // cache outcomes of the timed reads (warm-up excluded)
	shared         uint64 // singleflight joins over the whole replay
	patched, refit int
	root           []int // root span per replayed op (traced replays)
}

// replay repeats ops against se, sequentially, recording spans around each
// public call when t is on: a request root holding core.recommend (named
// _hit or _miss by its cache outcome, with health.observe_served nested),
// or an ingest root holding core.apply (health.observe_apply nested) and
// journal.append. Mutations journal to jpath as auricd's do.
func replay(se *core.ShardedEngine, t *tracer, ops []opRec, base *lte.Network, pairwise bool, jpath string) (replayStats, error) {
	var st replayStats
	if err := removeIfExists(jpath); err != nil {
		return st, err
	}
	j, _, err := journal.Open(jpath)
	if err != nil {
		return st, err
	}
	defer j.Close()
	st.root = make([]int, len(ops))
	// Replayed upserts may be assigned other ids than the daemon's; deletes
	// follow the replay's own ids.
	ids := map[int]int{}
	c0 := se.CacheStats()
	start := time.Now()
	for i, op := range ops {
		t.op = i
		switch op.kind {
		case opRead:
			c, nbs, err := request(se, op.key, pairwise)
			if err != nil {
				return st, err
			}
			root := t.begin("request")
			hit, err := recommendSpan(se, t, c, nbs)
			t.end(root)
			st.root[i] = root
			if op.phase == phMeasure && hit {
				st.hits++
			} else if op.phase == phMeasure {
				st.misses++
			}
			if err != nil {
				return st, fmt.Errorf("replay recommend %d: %w", op.key, err)
			}
		default:
			m := mutation{upsert: op.kind == opUpsert, donor: op.key, target: op.key}
			if !m.upsert {
				if id, ok := ids[op.key]; ok {
					m.target = id
				}
			}
			wd := m.wire(base)
			root := t.begin("ingest")
			d, err := resolve(wd)
			if err != nil {
				return st, err
			}
			sp := t.begin("core.apply")
			res, err := se.Apply(d)
			t.end(sp)
			if err != nil {
				return st, fmt.Errorf("replay apply: %w", err)
			}
			data, err := json.Marshal(wd)
			if err != nil {
				return st, err
			}
			sp = t.begin("journal.append")
			_, err = j.Append("delta", data)
			t.end(sp)
			t.end(root)
			st.root[i] = root
			if err != nil {
				return st, err
			}
			if m.upsert {
				ids[op.id] = int(res.Assigned[0])
			}
			st.patched += res.Patched
			st.refit += res.Refit
		}
	}
	st.wall = time.Since(start)
	t.op = -1
	c1 := se.CacheStats()
	st.shared = c1.SingleflightShared - c0.SingleflightShared
	return st, nil
}

// probeHits requests the first replayed keys twice so a replay without
// cache hits (launch-cold never repeats a key) still times the hit path.
func probeHits(se *core.ShardedEngine, t *tracer, ops []opRec, pairwise bool) error {
	n := 0
	for _, op := range ops {
		if op.kind != opRead || n == hitProbe {
			continue
		}
		n++
		c, nbs, err := request(se, op.key, pairwise)
		if err != nil {
			return err
		}
		// The first call fills the cache (ingest since the replay may have
		// reset it); the second is timed.
		if _, err := se.RecommendContext(context.Background(), c, nbs); err != nil {
			return err
		}
		if _, err := recommendSpan(se, t, c, nbs); err != nil {
			return err
		}
	}
	return nil
}

// request resolves a read the way auricd does: the carrier from the
// serving inventory and, when pair-wise, its current X2 neighbours.
func request(se *core.ShardedEngine, key int, pairwise bool) (*lte.Carrier, []lte.CarrierID, error) {
	net, x2, _, err := se.Inventory()
	if err != nil {
		return nil, nil, err
	}
	c := &net.Carriers[key]
	var nbs []lte.CarrierID
	if pairwise {
		nbs = x2.CarrierNeighbors(c.ID)
	}
	return c, nbs, nil
}

// recommendSpan calls RecommendContext inside a span named by its cache
// outcome, core.recommend_hit or core.recommend_miss, and reports whether
// it was a hit.
func recommendSpan(se *core.ShardedEngine, t *tracer, c *lte.Carrier, nbs []lte.CarrierID) (bool, error) {
	before := se.CacheStats().Hits
	sp := t.begin("core.recommend")
	_, err := se.RecommendContext(context.Background(), c, nbs)
	t.end(sp)
	hit := se.CacheStats().Hits > before
	if hit {
		t.rename(sp, "core.recommend_hit")
	} else {
		t.rename(sp, "core.recommend_miss")
	}
	return hit, err
}

// cfStats summarises the cf decomposition.
type cfStats struct {
	requests, jobs, exact int
}

// decompose repeats, outside the engine, the per-job model calls a
// recommend makes for the first cfKeys distinct replayed carriers —
// PredictCodes over the carrier's one-hop scope and DependentValues — and
// times each as cf.predict and cf.dependents.
func decompose(se *core.ShardedEngine, t *tracer, ops []opRec, pairwise bool) (cfStats, error) {
	var cs cfStats
	net, x2, _, err := se.Inventory()
	if err != nil {
		return cs, err
	}
	schema := se.Schema()
	seen := map[int]bool{}
	for _, op := range ops {
		if op.kind != opRead || seen[op.key] || len(seen) == cfKeys {
			continue
		}
		seen[op.key] = true
		c := &net.Carriers[op.key]
		eng, _, _, err := se.MarketEngine(c.Market)
		if err != nil {
			return cs, err
		}
		var scope []lte.CarrierID
		for _, id := range x2.CarriersNearENodeB(net, c.ENodeB, 1) {
			if id != c.ID {
				scope = append(scope, id)
			}
		}
		attrs := c.AttributeVector()
		job := func(pi int, row []string) error {
			m := eng.Model(pi)
			cm, ok1 := m.(learn.CodesModel)
			ss, ok2 := m.(learn.SiteScoper)
			dv, ok3 := m.(interface{ DependentValues([]string) []string })
			if !ok1 || !ok2 || !ok3 {
				return fmt.Errorf("parameter %d: model lacks the cf serving interfaces", pi)
			}
			sc := ss.ScopeFrom(scope)
			codes := cm.EncodeRow(row)
			sp := t.begin("cf.predict")
			p := cm.PredictCodes(codes, row, sc)
			t.end(sp)
			sp = t.begin("cf.dependents")
			dv.DependentValues(row)
			t.end(sp)
			cs.jobs++
			if p.Diag.ExactIndex {
				cs.exact++
			}
			return nil
		}
		for _, pi := range schema.Singular() {
			if err := job(pi, attrs); err != nil {
				return cs, err
			}
		}
		if pairwise {
			for _, nb := range x2.CarrierNeighbors(c.ID) {
				row := append(append([]string(nil), attrs...), net.Carriers[nb].AttributeVector()...)
				for _, pi := range schema.PairWise() {
					if err := job(pi, row); err != nil {
						return cs, err
					}
				}
			}
		}
		cs.requests++
	}
	return cs, nil
}
