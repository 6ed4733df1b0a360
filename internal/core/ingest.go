package core

// Live carrier ingest: ShardedEngine.Apply absorbs upserts and tombstones
// into a new serving generation without retraining. The delta is validated
// against the current inventory, the network / configuration / X2 graph are
// derived copy-on-write at a cost in proportion to the delta (lte.Config
// copies only the rows the delta writes, geo.Graph.Rebind recomputes only
// the neighbor lists around the touched eNodeBs), and only the affected
// markets' parameter models are touched — each one patched in place
// through cf.Model.Update (or refit for that single parameter when its
// dependency structure shifts). Untouched markets carry their fitted models
// into the new generation by reference. The generation swap and drain
// reuse Load's machinery, so readers of the retiring generation finish
// undisturbed and Apply is atomic: on any error the serving state is
// exactly what it was.

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"auric/internal/dataset"
	"auric/internal/geo"
	"auric/internal/learn"
	"auric/internal/learn/cf"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
)

// Ingest metrics: apply cadence and the patch-vs-refit split, the operator's
// view of how much retraining live ingest is avoiding (OPERATIONS.md).
var (
	ingestApplySeconds = obs.Default().Histogram("auric_ingest_apply_seconds",
		"Wall-clock seconds per ShardedEngine.Apply call (delta validated, models patched, generation swapped).", obs.DefBuckets)
	ingestModelsPatched = obs.Default().Counter("auric_ingest_models_patched_total",
		"Parameter models patched in place by live ingest (no refit).")
	ingestModelsRefit = obs.Default().Counter("auric_ingest_models_refit_total",
		"Parameter models refit during live ingest because their chi-square dependency structure shifted.")
	// ingestStages splits one delta's ack into its stages; Apply times
	// validate, inventory (network, configuration and X2 rebind), patch
	// and swap, and auricd adds the journal fsync.
	ingestStages = obs.Default().HistogramVec("auric_ingest_stage_seconds",
		"Seconds per live-ingest stage of one delta: validate, inventory (network, configuration and X2 rebind), patch, swap, and journal (auricd's fsynced append).",
		obs.DefBuckets, "stage")
	stageValidate  = ingestStages.With("validate")
	stageInventory = ingestStages.With("inventory")
	stagePatch     = ingestStages.With("patch")
	stageSwap      = ingestStages.With("swap")
)

// PairValues carries pair-wise parameter values for one directed relation of
// an upserted carrier.
type PairValues struct {
	// To is the neighbor carrier of the relation. It must be live: either an
	// existing carrier or one created earlier in the same Delta.
	To lte.CarrierID
	// Values maps schema indices of pair-wise parameters to their values.
	Values map[int]float64
}

// Upsert creates or replaces one carrier.
type Upsert struct {
	// Carrier holds the full attribute record. ID -1 creates a new carrier
	// (Apply assigns the next id); an existing id replaces that carrier's
	// attributes wholesale. The eNodeB must exist and its market must match
	// Carrier.Market; an existing carrier cannot change market.
	Carrier lte.Carrier
	// Config maps schema indices of singular parameters to values. Omitted
	// parameters keep their current value (new carriers start at each
	// parameter's minimum).
	Config map[int]float64
	// Pairs configures pair-wise parameters toward specific neighbors. Only
	// relations that are also X2-adjacent after the delta contribute
	// training rows.
	Pairs []PairValues
}

// Delta is one atomic batch of inventory changes. Apply installs all of it
// or none of it.
type Delta struct {
	Upserts []Upsert
	// Tombstones removes carriers from service: their rows leave every
	// model, they disappear from X2 adjacency, and further upserts of the
	// id are rejected. Ids stay allocated (the inventory is append-only).
	Tombstones []lte.CarrierID
}

// ApplyResult reports an installed delta.
type ApplyResult struct {
	// Generation is the serving generation the delta produced.
	Generation int64
	// Assigned lists the carrier id of each upsert, parallel to
	// Delta.Upserts (newly created carriers get fresh ids).
	Assigned []lte.CarrierID
	// Patched and Refit count the parameter models updated in place versus
	// refit because their dependency structure shifted.
	Patched, Refit int
}

// marketDelta is the per-market slice of a validated Delta, in the terms the
// model patch consumes: rows to add and sites to tombstone, for the singular
// and pair-wise bases.
type marketDelta struct {
	addIDs   []lte.CarrierID // carriers whose singular row is (re-)added
	rmSing   []dataset.Site  // singular sites to tombstone
	addEdges []lte.EdgeKey   // directed relations whose pair row is (re-)added
	rmPair   []dataset.Site  // pair sites to tombstone
}

// Apply installs a delta as a new serving generation, patching only the
// affected markets' models (see the package comment above). It returns once
// the previous generation has drained, like Load. The delta is atomic:
// validation errors, and any patch failure, leave the serving state
// untouched.
//
// Apply requires the engine's models to support incremental update (the
// default cf learner does) and an unsampled training set (Options.MaxSamples
// must be zero).
func (se *ShardedEngine) Apply(d Delta) (ApplyResult, error) {
	se.loadMu.Lock()
	defer se.loadMu.Unlock()
	defer obs.Since(ingestApplySeconds, time.Now())
	cur := se.state.Load()
	if cur == nil {
		return ApplyResult{}, fmt.Errorf("core: sharded engine not loaded")
	}
	if cur.cfg == nil {
		return ApplyResult{}, fmt.Errorf("core: serving state has no configuration snapshot")
	}
	if se.opts.MaxSamples > 0 {
		return ApplyResult{}, fmt.Errorf("core: live ingest requires the full training set (MaxSamples is %d)", se.opts.MaxSamples)
	}
	if len(d.Upserts) == 0 && len(d.Tombstones) == 0 {
		return ApplyResult{Generation: cur.gen}, nil
	}

	start := time.Now()
	assigned, tombs, err := se.validate(cur, d)
	if err != nil {
		return ApplyResult{}, err
	}
	start = lap(stageValidate, start)

	// Copy-on-write inventory: carriers and eNodeBs are fresh slices, and
	// only eNodeB carrier lists the delta touches are cloned. Tombstoned
	// carriers keep their slot in Carriers (the id space is append-only)
	// but leave their eNodeB's list, so X2 adjacency no longer sees them.
	oldLen := len(cur.net.Carriers)
	carriers := slices.Clone(cur.net.Carriers)
	enodebs := slices.Clone(cur.net.ENodeBs)
	for i := oldLen; i < oldLen+len(d.Upserts); i++ {
		carriers = append(carriers, lte.Carrier{}) // slots for new ids
	}
	carriers = carriers[:oldLen+countNew(assigned, oldLen)]
	cloned := make(map[lte.ENodeBID]bool)
	listOf := func(e lte.ENodeBID) []lte.CarrierID {
		if !cloned[e] {
			enodebs[e].Carriers = slices.Clone(enodebs[e].Carriers)
			cloned[e] = true
		}
		return enodebs[e].Carriers
	}
	removeFrom := func(e lte.ENodeBID, id lte.CarrierID) {
		l := listOf(e)
		if i := slices.Index(l, id); i >= 0 {
			enodebs[e].Carriers = slices.Delete(l, i, i+1)
		}
	}
	for i := range d.Upserts {
		id := assigned[i]
		c := d.Upserts[i].Carrier
		c.ID = id
		if int(id) < oldLen {
			if old := cur.net.Carriers[id].ENodeB; old != c.ENodeB {
				removeFrom(old, id)
				enodebs[c.ENodeB].Carriers = append(listOf(c.ENodeB), id)
			}
		} else {
			enodebs[c.ENodeB].Carriers = append(listOf(c.ENodeB), id)
		}
		carriers[id] = c
	}
	for _, id := range tombs {
		removeFrom(carriers[id].ENodeB, id)
	}
	net2 := &lte.Network{Markets: cur.net.Markets, ENodeBs: enodebs, Carriers: carriers}
	if err := net2.Validate(); err != nil {
		return ApplyResult{}, fmt.Errorf("core: delta produced an inconsistent network: %w", err)
	}

	cfg2 := cur.cfg.Clone()
	cfg2.Grow(len(carriers) - oldLen)
	for i := range d.Upserts {
		u := &d.Upserts[i]
		id := assigned[i]
		for pi, v := range u.Config {
			cfg2.Set(id, pi, v)
		}
		for _, pv := range u.Pairs {
			for pi, v := range pv.Values {
				cfg2.SetPair(id, pv.To, pi, v)
			}
		}
	}

	dead2 := cur.dead.with(tombs)

	// X2 adjacency is strictly intra-market and eNodeBs never move, so the
	// rebind recomputes only the neighbor lists around the eNodeBs the
	// delta touched (equal to a full BuildX2 with the serving graph's own
	// options); every other market's shard carries over untouched below.
	x22, rebound := cur.x2.Rebind(cur.net, net2, slices.Concat(assigned, tombs))
	start = lap(stageInventory, start)

	mds := se.marketDeltas(cur, net2, x22, assigned, tombs, rebound, oldLen)

	// Patch the affected markets; rebind the rest onto the new inventory
	// with their fitted models shared by reference.
	shards := make([]*Engine, len(net2.Markets))
	res := ApplyResult{Generation: cur.gen + 1, Assigned: assigned}
	trained := 0
	for m := range cur.shards {
		e := cur.shards[m]
		if e == nil {
			continue
		}
		trained++
		md := mds[m]
		if md == nil {
			ne := &Engine{opts: e.opts, schema: e.schema}
			ne.install(net2, x22, e.models)
			shards[m] = ne
			continue
		}
		keep := se.marketKeep(net2, dead2, m)
		ne, patched, refit, err := e.patched(net2, x22, cfg2, keep, md)
		if err != nil {
			return ApplyResult{}, err
		}
		shards[m] = ne
		res.Patched += patched
		res.Refit += refit
	}
	start = lap(stagePatch, start)

	st := &shardState{gen: cur.gen + 1, net: net2, x2: x22, cfg: cfg2, dead: dead2,
		shards: shards, drained: make(chan struct{})}
	ingestModelsPatched.Add(uint64(res.Patched))
	ingestModelsRefit.Add(uint64(res.Refit))
	se.swap(st, trained)
	lap(stageSwap, start)
	if o := se.observer(); o != nil {
		o.ObserveApply(st.gen, net2, assigned, tombs)
	}
	return res, nil
}

// SnapshotState returns the serving inventory in persistable form: the
// network (tombstoned carriers still occupy their Carriers slot), the
// configuration, the sorted tombstone list, and the generation. Compaction
// writes exactly this state; reloading it and re-applying the tombstones
// reproduces the serving models (the ingest equivalence tests pin that).
func (se *ShardedEngine) SnapshotState() (*lte.Network, *lte.Config, []lte.CarrierID, int64, error) {
	st, err := se.acquire()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer st.release()
	return st.net, st.cfg, st.dead.ids(), st.gen, nil
}

// Tombstoned reports whether a carrier id has been removed from service.
func (se *ShardedEngine) Tombstoned(id lte.CarrierID) (bool, error) {
	st, err := se.acquire()
	if err != nil {
		return false, err
	}
	defer st.release()
	return st.dead.has(id), nil
}

// lap observes the time since start on a stage histogram and returns the
// start of the next stage.
func lap(h *obs.Histogram, start time.Time) time.Time {
	now := time.Now()
	h.Observe(now.Sub(start).Seconds())
	return now
}

// tombSet is the persistent set of tombstoned carriers: a bitset split
// into pages that serving generations share, so adding ids copies only the
// pages they land in. The nil set is empty; sets are immutable once built.
type tombSet struct {
	pages [][]uint64
}

const tombPageBits = 4096

func (t *tombSet) has(id lte.CarrierID) bool {
	if t == nil {
		return false
	}
	p, b := int(id)/tombPageBits, int(id)%tombPageBits
	return p < len(t.pages) && t.pages[p] != nil && t.pages[p][b/64]&(1<<(b%64)) != 0
}

// with returns the set plus ids.
func (t *tombSet) with(ids []lte.CarrierID) *tombSet {
	out := &tombSet{}
	if t != nil {
		out.pages = slices.Clone(t.pages)
	}
	copied := make(map[int]bool)
	for _, id := range ids {
		p, b := int(id)/tombPageBits, int(id)%tombPageBits
		for p >= len(out.pages) {
			out.pages = append(out.pages, nil)
		}
		if !copied[p] {
			page := make([]uint64, tombPageBits/64)
			copy(page, out.pages[p])
			out.pages[p] = page
			copied[p] = true
		}
		out.pages[p][b/64] |= 1 << (b % 64)
	}
	return out
}

// ids lists the set in ascending order.
func (t *tombSet) ids() []lte.CarrierID {
	out := []lte.CarrierID{}
	if t == nil {
		return out
	}
	for p, page := range t.pages {
		for w, word := range page {
			for ; word != 0; word &= word - 1 {
				out = append(out, lte.CarrierID(p*tombPageBits+w*64+bits.TrailingZeros64(word)))
			}
		}
	}
	return out
}

// countNew reports how many of the assigned ids are newly created (at or
// beyond the previous inventory length).
func countNew(assigned []lte.CarrierID, oldLen int) int {
	n := 0
	for _, id := range assigned {
		if int(id) >= oldLen {
			n++
		}
	}
	return n
}

// validate checks a delta against the current serving state and resolves the
// id of every upsert. It rejects anything the patch path cannot absorb:
// unknown eNodeBs, markets without a trained shard, cross-market rehomes,
// upserts of tombstoned ids, conflicting items, invalid parameter indices,
// and tombstones that would empty a market.
func (se *ShardedEngine) validate(cur *shardState, d Delta) (assigned, tombs []lte.CarrierID, err error) {
	oldLen := len(cur.net.Carriers)
	tombSet := make(map[lte.CarrierID]bool, len(d.Tombstones))
	for _, id := range d.Tombstones {
		if int(id) < 0 || int(id) >= oldLen {
			return nil, nil, fmt.Errorf("core: tombstone of carrier %d outside the %d known carriers", id, oldLen)
		}
		if cur.dead.has(id) {
			return nil, nil, fmt.Errorf("core: carrier %d is already tombstoned", id)
		}
		if tombSet[id] {
			return nil, nil, fmt.Errorf("core: carrier %d tombstoned twice in one delta", id)
		}
		tombSet[id] = true
		tombs = append(tombs, id)
	}

	assigned = make([]lte.CarrierID, len(d.Upserts))
	touched := make(map[lte.CarrierID]bool, len(d.Upserts))
	newMarket := make(map[lte.CarrierID]int) // markets of ids created by this delta
	next := lte.CarrierID(oldLen)
	for i := range d.Upserts {
		c := &d.Upserts[i].Carrier
		if int(c.ENodeB) < 0 || int(c.ENodeB) >= len(cur.net.ENodeBs) {
			return nil, nil, fmt.Errorf("core: upsert %d references eNodeB %d outside the %d known eNodeBs", i, c.ENodeB, len(cur.net.ENodeBs))
		}
		m := cur.net.ENodeBs[c.ENodeB].Market
		if c.Market != m {
			return nil, nil, fmt.Errorf("core: upsert %d claims market %d but eNodeB %d is in market %d", i, c.Market, c.ENodeB, m)
		}
		if cur.shards[m] == nil {
			return nil, nil, fmt.Errorf("core: market %d has no trained shard; live ingest needs an initial snapshot covering the market", m)
		}
		if c.Face < 0 || c.Face > 2 {
			return nil, nil, fmt.Errorf("core: upsert %d has face %d, want 0-2", i, c.Face)
		}
		var id lte.CarrierID
		switch {
		case c.ID == -1:
			id = next
			next++
			newMarket[id] = m
		case int(c.ID) >= 0 && int(c.ID) < oldLen:
			id = c.ID
			if cur.dead.has(id) {
				return nil, nil, fmt.Errorf("core: carrier %d is tombstoned and cannot be upserted", id)
			}
			if tombSet[id] {
				return nil, nil, fmt.Errorf("core: carrier %d both upserted and tombstoned in one delta", id)
			}
			if cur.net.Carriers[id].Market != m {
				return nil, nil, fmt.Errorf("core: carrier %d cannot move from market %d to market %d", id, cur.net.Carriers[id].Market, m)
			}
		default:
			return nil, nil, fmt.Errorf("core: upsert %d has carrier id %d; use -1 to create or an existing id to replace", i, c.ID)
		}
		if touched[id] {
			return nil, nil, fmt.Errorf("core: carrier %d upserted twice in one delta", id)
		}
		touched[id] = true
		assigned[i] = id

		schema := se.schema
		for pi := range d.Upserts[i].Config {
			if pi < 0 || pi >= schema.Len() || schema.At(pi).Kind != paramspec.Singular {
				return nil, nil, fmt.Errorf("core: upsert %d configures invalid singular parameter index %d", i, pi)
			}
		}
		for _, pv := range d.Upserts[i].Pairs {
			for pi := range pv.Values {
				if pi < 0 || pi >= schema.Len() || schema.At(pi).Kind != paramspec.PairWise {
					return nil, nil, fmt.Errorf("core: upsert %d configures invalid pair-wise parameter index %d", i, pi)
				}
			}
			to := pv.To
			if to == id {
				return nil, nil, fmt.Errorf("core: upsert %d configures a self relation on carrier %d", i, id)
			}
			var toMarket int
			switch {
			case int(to) >= 0 && int(to) < oldLen && !cur.dead.has(to) && !tombSet[to]:
				toMarket = cur.net.Carriers[to].Market
			case int(to) >= oldLen && int(to) < int(next):
				toMarket = newMarket[to]
			default:
				return nil, nil, fmt.Errorf("core: upsert %d configures a relation to carrier %d, which is not live", i, to)
			}
			if toMarket != m {
				return nil, nil, fmt.Errorf("core: upsert %d configures a cross-market relation %d -> %d", i, id, to)
			}
		}
	}

	// A market must keep at least one live carrier: the patch path cannot
	// train an emptied market back from nothing. The live carriers are
	// exactly those on the market's eNodeB carrier lists (tombstoned ones
	// have left them), so only tombstones still listed count against it.
	delta := make(map[int]int)
	for _, id := range tombs {
		c := &cur.net.Carriers[id]
		if slices.Contains(cur.net.ENodeBs[c.ENodeB].Carriers, id) {
			delta[c.Market]--
		}
	}
	for _, m := range newMarket {
		delta[m]++
	}
	for m, dn := range delta {
		if dn >= 0 {
			continue
		}
		live := 0
		for i := range cur.net.ENodeBs {
			if e := &cur.net.ENodeBs[i]; e.Market == m {
				live += len(e.Carriers)
			}
		}
		if live+dn <= 0 {
			return nil, nil, fmt.Errorf("core: delta would leave market %d with no live carriers", m)
		}
	}
	return assigned, tombs, nil
}

// marketKeep is the effective training filter of one market's shard: the
// market partition, minus the tombstones dead (nil at Load), composed with
// the engine-level vendor and keep options. Load and Apply both train
// through it, so a patched shard keeps exactly the rows a fresh Load over
// the same state would train on.
func (se *ShardedEngine) marketKeep(net *lte.Network, dead *tombSet, m int) dataset.Filter {
	base, vendor := se.opts.Keep, se.opts.Vendor
	return func(id lte.CarrierID) bool {
		c := &net.Carriers[id]
		return c.Market == m && !dead.has(id) &&
			(vendor == "" || c.Vendor == vendor) &&
			(base == nil || base(id))
	}
}

// marketDeltas slices the validated delta per affected market, diffing old
// and new X2 adjacency to find every pair row the change invalidates. A row
// is re-added (tombstone + append) whenever either endpoint's attributes
// changed, and added or removed when the adjacency itself changed — which
// can happen to carriers away from the delta when a new carrier pushes a
// neighbor past the per-carrier cap. Only the carriers whose lists the
// rebind recomputed (ascending) can differ: any other carrier keeps its
// list, and none of its neighbors changed, or its list would have been
// recomputed.
func (se *ShardedEngine) marketDeltas(cur *shardState, net2 *lte.Network, x22 *geo.Graph,
	assigned, tombs, rebound []lte.CarrierID, oldLen int) map[int]*marketDelta {
	mds := make(map[int]*marketDelta)
	md := func(m int) *marketDelta {
		if mds[m] == nil {
			mds[m] = &marketDelta{}
		}
		return mds[m]
	}
	for _, id := range assigned {
		m := md(net2.Carriers[id].Market)
		m.addIDs = append(m.addIDs, id)
		if int(id) < oldLen {
			// Replacing an existing carrier: its old singular row retires.
			m.rmSing = append(m.rmSing, dataset.Site{From: id, To: -1})
		}
	}
	for _, id := range tombs {
		m := md(net2.Carriers[id].Market)
		m.rmSing = append(m.rmSing, dataset.Site{From: id, To: -1})
	}
	for _, m := range mds {
		slices.Sort(m.addIDs)
	}

	// Pair-row diff over the rebound carriers. Tombstoned carriers have
	// empty neighbor lists, so their rows only ever leave.
	changed := make(map[lte.CarrierID]bool, len(assigned)+len(tombs))
	for _, id := range slices.Concat(assigned, tombs) {
		changed[id] = true
	}
	for _, id := range rebound {
		m, ok := mds[net2.Carriers[id].Market]
		if !ok {
			continue
		}
		var oldList []lte.CarrierID
		if int(id) < oldLen {
			oldList = cur.x2.CarrierNeighbors(id)
		}
		newList := x22.CarrierNeighbors(id)
		// A relation is re-added when either endpoint changed, and added
		// or removed when the adjacency itself changed. Neighbor lists are
		// capped short, so the membership scans stay cheap.
		for _, b := range oldList {
			if changed[id] || changed[b] || !slices.Contains(newList, b) {
				m.rmPair = append(m.rmPair, dataset.Site{From: id, To: b})
			}
		}
		for _, b := range newList {
			if changed[id] || changed[b] || !slices.Contains(oldList, b) {
				m.addEdges = append(m.addEdges, lte.EdgeKey{From: id, To: b})
			}
		}
	}
	return mds
}

// patched returns a copy of the engine over the new inventory with its
// models absorbed into the market delta, one parameter group (singular,
// pair-wise) at a time.
func (e *Engine) patched(net *lte.Network, x2 *geo.Graph, cfg *lte.Config, keep dataset.Filter,
	md *marketDelta) (*Engine, int, int, error) {
	models := slices.Clone(e.models)

	// Rows only exist for carriers the shard trains on; the keep filter
	// drops adds outside it (tombstones of filtered carriers match no row
	// and are ignored by Update).
	var sRows, pRows [][]string
	var sSites, pSites []dataset.Site
	for _, id := range md.addIDs {
		if keep == nil || keep(id) {
			sRows = append(sRows, net.Carriers[id].AttributeVector())
			sSites = append(sSites, dataset.Site{From: id, To: -1})
		}
	}
	for _, k := range md.addEdges {
		if keep == nil || keep(k.From) {
			pRows = append(pRows, lte.PairAttributeVector(&net.Carriers[k.From], &net.Carriers[k.To]))
			pSites = append(pSites, dataset.Site{From: k.From, To: k.To})
		}
	}
	sp, sr, err := e.patchGroup(models, e.schema.Singular(), cfg, sRows, sSites, md.rmSing)
	if err != nil {
		return nil, 0, 0, err
	}
	pp, pr, err := e.patchGroup(models, e.schema.PairWise(), cfg, pRows, pSites, md.rmPair)
	if err != nil {
		return nil, 0, 0, err
	}
	opts := e.opts
	opts.Keep = keep
	ne := &Engine{opts: opts, schema: e.schema}
	ne.install(net, x2, models)
	return ne, sp + pp, sr + pr, nil
}

// patchGroup absorbs one parameter group's share of a market delta into
// models: the group's shared columnar base is extended copy-on-write once
// with rows, then every model of pis is rebased onto the extension, given
// the new rows' samples (sites parallel rows), and updated with the
// tombstones rm — sequentially, because appends to the shared site slices
// must not race. A group whose base saw no change keeps its models.
func (e *Engine) patchGroup(models []learn.Model, pis []int, cfg *lte.Config,
	rows [][]string, sites, rm []dataset.Site) (patched, refit int, err error) {
	if len(rows) == 0 && len(rm) == 0 {
		return 0, 0, nil
	}
	var ext *dataset.Extension
	for _, pi := range pis {
		spec := e.schema.At(pi)
		m, ok := e.models[pi].(*cf.Model)
		if !ok {
			return 0, 0, fmt.Errorf("core: live ingest requires cf models; parameter %s has %T", spec.Name, e.models[pi])
		}
		if ext == nil {
			ext = dataset.ExtendBase(m.Table(), rows)
		}
		t2 := ext.Rebase(m.Table())
		for k, s := range sites {
			v, ok := 0.0, true
			if s.To < 0 {
				v = cfg.Get(s.From, pi)
			} else {
				v, ok = cfg.GetPair(s.From, s.To, pi)
			}
			if ok { // unconfigured relations carry no sample, as at build
				t2.AppendSample(ext.FirstRow()+int32(k), spec.Format(v), v, s)
			}
		}
		nm, ok, err := m.Update(t2, rm)
		if err != nil {
			return 0, 0, fmt.Errorf("core: patching %s: %w", spec.Name, err)
		}
		models[pi] = nm
		if ok {
			patched++
		} else {
			refit++
		}
	}
	return patched, refit, nil
}
