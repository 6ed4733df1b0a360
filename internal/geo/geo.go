// Package geo builds the X2 neighbor-relation graph that Auric uses as its
// notion of geographical proximity (Sec 3.3: "we use the X2 LTE neighbor
// relations to capture geographically nearby neighbors for the carriers").
//
// X2 relations exist between eNodeBs; carrier-level neighbor relations are
// derived from them: a carrier's neighbors are the same-frequency carriers
// on X2-adjacent eNodeBs (inter-eNodeB, intra-frequency handover targets)
// plus the other-frequency carriers co-sited on its own eNodeB
// (inter-frequency layer-management targets).
package geo

import (
	"math"
	"slices"
	"sort"
	"sync"

	"auric/internal/lte"
)

// Options controls X2 graph construction.
type Options struct {
	// RadiusDeg is the maximum distance (in the synthetic degree plane)
	// between two eNodeBs for an X2 relation to exist. Zero means the
	// default of 0.06.
	RadiusDeg float64
	// MaxENodeBNeighbors caps the number of X2 relations per eNodeB,
	// keeping the nearest ones. Zero means the default of 8.
	MaxENodeBNeighbors int
	// MaxCarrierNeighbors caps the number of neighbor carriers per
	// carrier. Zero means the default of 10.
	MaxCarrierNeighbors int
}

func (o Options) withDefaults() Options {
	if o.RadiusDeg == 0 {
		o.RadiusDeg = 0.06
	}
	if o.MaxENodeBNeighbors == 0 {
		o.MaxENodeBNeighbors = 8
	}
	if o.MaxCarrierNeighbors == 0 {
		o.MaxCarrierNeighbors = 10
	}
	return o
}

// Graph is an X2 neighbor-relation graph over a network. Build one with
// BuildX2, or derive one for an updated inventory with Rebind; a graph is
// logically immutable and safe for concurrent use (the neighborhood memos
// below are internally synchronized).
type Graph struct {
	opts Options
	// enb and rev are the eNodeB adjacency and its reverse (the eNodeBs
	// listing each one as an X2 neighbor). They depend only on eNodeB
	// positions and markets, which live ingest never changes, so every
	// graph rebound from this one shares them.
	enb     [][]lte.ENodeBID
	rev     [][]lte.ENodeBID
	carrier [][]lte.CarrierID

	// hoods memoizes, per market, the sorted carrier list per (eNodeB,
	// hops) BFS — the hot query of the local learner, issued once per
	// (carrier, parameter) by serving and evaluation. The list depends only
	// on the start eNodeB and radius, so per-carrier exclusion filters a
	// cached copy. X2 never crosses markets, so a rebind keeps the memo of
	// every market it does not touch.
	hoods []*hoodMemo
}

// hoodMemo is one market's neighborhood memo.
type hoodMemo struct {
	mu sync.RWMutex
	m  map[hoodKey][]lte.CarrierID
}

type hoodKey struct {
	enb  lte.ENodeBID
	hops int
}

// BuildX2 derives the X2 graph of n from eNodeB positions. eNodeBs within
// opts.RadiusDeg of each other and in the same market are X2-adjacent
// (subject to the per-eNodeB cap, nearest first).
func BuildX2(n *lte.Network, opts Options) *Graph {
	opts = opts.withDefaults()
	g := &Graph{
		opts:    opts,
		enb:     make([][]lte.ENodeBID, len(n.ENodeBs)),
		rev:     make([][]lte.ENodeBID, len(n.ENodeBs)),
		carrier: make([][]lte.CarrierID, len(n.Carriers)),
		hoods:   make([]*hoodMemo, len(n.Markets)),
	}
	for m := range g.hoods {
		g.hoods[m] = new(hoodMemo)
	}
	g.buildENodeBAdjacency(n, opts)
	for i, nbs := range g.enb {
		for _, nb := range nbs {
			g.rev[nb] = append(g.rev[nb], lte.ENodeBID(i))
		}
	}
	for i := range n.Carriers {
		g.carrier[i] = g.neighbors(n, lte.CarrierID(i))
	}
	return g
}

// Rebind returns the graph of n, an update of old (the inventory g was
// built or rebound over) that keeps every eNodeB with its position and
// market and changes only the records and eNodeB memberships of the
// changed carriers — added, replaced, moved or tombstoned by live ingest.
// It equals BuildX2 of n with g's options at a cost in proportion to the
// change: the eNodeB adjacency is shared with g; carrier neighbor lists are
// recomputed only on the eNodeBs the changed carriers left or joined and on
// the eNodeBs that list one of those as an X2 neighbor; and the
// neighborhood memos of markets holding no such eNodeB carry over. It also
// returns the carriers whose lists it recomputed, ascending; every other
// carrier of n keeps its list from g.
func (g *Graph) Rebind(old, n *lte.Network, changed []lte.CarrierID) (*Graph, []lte.CarrierID) {
	g2 := &Graph{
		opts:    g.opts,
		enb:     g.enb,
		rev:     g.rev,
		carrier: make([][]lte.CarrierID, len(n.Carriers)),
		hoods:   slices.Clone(g.hoods),
	}
	copy(g2.carrier, g.carrier)
	redo := make(map[lte.ENodeBID]bool)
	touch := func(e lte.ENodeBID) {
		redo[e] = true
		for _, f := range g.rev[e] {
			redo[f] = true
		}
		g2.hoods[n.ENodeBs[e].Market] = new(hoodMemo)
	}
	ids := slices.Clone(changed)
	for _, id := range changed {
		if int(id) < len(old.Carriers) {
			touch(old.Carriers[id].ENodeB)
		}
		touch(n.Carriers[id].ENodeB)
	}
	for e := range redo {
		ids = append(ids, n.ENodeBs[e].Carriers...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for _, id := range ids {
		g2.carrier[id] = g2.neighbors(n, id)
	}
	return g2, ids
}

// buildENodeBAdjacency bins eNodeBs into a uniform grid with cells of the
// search radius so that neighbor candidates are confined to the 3x3 cell
// neighborhood.
func (g *Graph) buildENodeBAdjacency(n *lte.Network, opts Options) {
	type cellKey struct{ x, y int }
	cells := make(map[cellKey][]lte.ENodeBID)
	cellOf := func(lat, lon float64) cellKey {
		return cellKey{int(math.Floor(lat / opts.RadiusDeg)), int(math.Floor(lon / opts.RadiusDeg))}
	}
	for i := range n.ENodeBs {
		k := cellOf(n.ENodeBs[i].Lat, n.ENodeBs[i].Lon)
		cells[k] = append(cells[k], lte.ENodeBID(i))
	}
	r2 := opts.RadiusDeg * opts.RadiusDeg
	type cand struct {
		id lte.ENodeBID
		d2 float64
	}
	for i := range n.ENodeBs {
		e := &n.ENodeBs[i]
		k := cellOf(e.Lat, e.Lon)
		var cands []cand
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range cells[cellKey{k.x + dx, k.y + dy}] {
					if int(j) == i {
						continue
					}
					o := &n.ENodeBs[j]
					if o.Market != e.Market {
						continue
					}
					dlat := o.Lat - e.Lat
					dlon := o.Lon - e.Lon
					d2 := dlat*dlat + dlon*dlon
					if d2 <= r2 {
						cands = append(cands, cand{j, d2})
					}
				}
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d2 != cands[b].d2 {
				return cands[a].d2 < cands[b].d2
			}
			return cands[a].id < cands[b].id
		})
		if len(cands) > opts.MaxENodeBNeighbors {
			cands = cands[:opts.MaxENodeBNeighbors]
		}
		out := make([]lte.ENodeBID, len(cands))
		for j, c := range cands {
			out[j] = c.id
		}
		g.enb[i] = out
	}
}

// neighbors computes the neighbor list of carrier id: the other-frequency
// carriers co-sited on its eNodeB, then the same-frequency carriers of its
// X2-adjacent eNodeBs, capped. A carrier on no eNodeB list (tombstoned by
// live ingest) has none.
func (g *Graph) neighbors(n *lte.Network, id lte.CarrierID) []lte.CarrierID {
	c := &n.Carriers[id]
	site := n.ENodeBs[c.ENodeB].Carriers
	if !slices.Contains(site, id) {
		return nil
	}
	var out []lte.CarrierID
	// Inter-frequency co-sited carriers on the same eNodeB.
	for _, other := range site {
		if other != id && n.Carriers[other].FrequencyMHz != c.FrequencyMHz {
			out = append(out, other)
		}
	}
	// Intra-frequency carriers on X2-adjacent eNodeBs.
	for _, enb := range g.enb[c.ENodeB] {
		for _, other := range n.ENodeBs[enb].Carriers {
			if n.Carriers[other].FrequencyMHz == c.FrequencyMHz {
				out = append(out, other)
			}
		}
		if len(out) >= g.opts.MaxCarrierNeighbors*2 {
			break
		}
	}
	if len(out) > g.opts.MaxCarrierNeighbors {
		out = out[:g.opts.MaxCarrierNeighbors]
	}
	return out
}

// ENodeBNeighbors returns the X2-adjacent eNodeBs of id (nearest first).
// The returned slice must not be modified.
func (g *Graph) ENodeBNeighbors(id lte.ENodeBID) []lte.ENodeBID { return g.enb[id] }

// CarrierNeighbors returns the neighbor carriers of id. The returned slice
// must not be modified.
func (g *Graph) CarrierNeighbors(id lte.CarrierID) []lte.CarrierID { return g.carrier[id] }

// NumENodeBs reports the number of eNodeBs in the graph.
func (g *Graph) NumENodeBs() int { return len(g.enb) }

// NumCarriers reports the number of carriers in the graph.
func (g *Graph) NumCarriers() int { return len(g.carrier) }

// CarriersNearENodeB returns the carriers hosted on eNodeBs within the
// given number of X2 hops of enb (hops >= 0; enb itself is hop 0), in
// ascending id order. This is the candidate scope of the paper's local
// learner (Sec 4.2 uses hops=1); callers drop the carrier being scoped.
// Anchoring on the eNodeB needs no carrier in the graph, so it also scopes
// carriers that are about to be added (the new-carrier launch path). The
// caller owns the returned slice.
func (g *Graph) CarriersNearENodeB(n *lte.Network, enb lte.ENodeBID, hops int) []lte.CarrierID {
	return slices.Clone(g.hood(n, enb, hops))
}

// hood returns the memoized sorted carrier list within hops of start,
// running the BFS on the first query per key. Concurrent first queries may
// compute the same list twice; both results are identical, so last-write
// wins harmlessly.
func (g *Graph) hood(n *lte.Network, start lte.ENodeBID, hops int) []lte.CarrierID {
	k := hoodKey{start, hops}
	memo := g.hoods[n.ENodeBs[start].Market]
	memo.mu.RLock()
	h, ok := memo.m[k]
	memo.mu.RUnlock()
	if ok {
		return h
	}
	visited := map[lte.ENodeBID]bool{start: true}
	frontier := []lte.ENodeBID{start}
	for hp := 0; hp < hops; hp++ {
		var next []lte.ENodeBID
		for _, e := range frontier {
			for _, nb := range g.enb[e] {
				if !visited[nb] {
					visited[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	var out []lte.CarrierID
	for e := range visited {
		out = append(out, n.ENodeBs[e].Carriers...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	memo.mu.Lock()
	if memo.m == nil {
		memo.m = make(map[hoodKey][]lte.CarrierID, 64)
	}
	memo.m[k] = out
	memo.mu.Unlock()
	return out
}
