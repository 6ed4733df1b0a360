package geo

import (
	"math/rand/v2"
	"slices"
	"testing"

	"auric/internal/lte"
)

// randomNetwork builds markets of jittered eNodeB grids, each eNodeB
// hosting 1-4 carriers on three frequencies, dense enough that the
// per-carrier neighbor cap binds.
func randomNetwork(r *rand.Rand, markets, side int) *lte.Network {
	n := &lte.Network{}
	for m := 0; m < markets; m++ {
		n.Markets = append(n.Markets, lte.Market{ID: m})
		for i := 0; i < side*side; i++ {
			id := lte.ENodeBID(len(n.ENodeBs))
			e := lte.ENodeB{ID: id, Market: m,
				Lat: float64(m)*10 + float64(i/side)*0.04 + r.Float64()*0.01,
				Lon: float64(i%side)*0.04 + r.Float64()*0.01}
			for k := 0; k < 1+r.IntN(4); k++ {
				cid := lte.CarrierID(len(n.Carriers))
				n.Carriers = append(n.Carriers, lte.Carrier{ID: cid, ENodeB: id, Market: m,
					FrequencyMHz: []int{700, 1900, 2100}[r.IntN(3)]})
				e.Carriers = append(e.Carriers, cid)
			}
			n.ENodeBs = append(n.ENodeBs, e)
		}
	}
	return n
}

// randomDelta applies 1-4 random carrier changes to a copy-on-write copy
// of n, the way live ingest does: new carriers, moves to another eNodeB of
// the market, frequency changes and tombstones. Tombstoned carriers keep
// their slot but leave their eNodeB's list. It returns the new network and
// the changed carriers.
func randomDelta(r *rand.Rand, n *lte.Network, dead map[lte.CarrierID]bool) (*lte.Network, []lte.CarrierID) {
	n2 := &lte.Network{Markets: n.Markets, ENodeBs: slices.Clone(n.ENodeBs), Carriers: slices.Clone(n.Carriers)}
	cloned := map[lte.ENodeBID]bool{}
	list := func(e lte.ENodeBID) *[]lte.CarrierID {
		if !cloned[e] {
			n2.ENodeBs[e].Carriers = slices.Clone(n2.ENodeBs[e].Carriers)
			cloned[e] = true
		}
		return &n2.ENodeBs[e].Carriers
	}
	remove := func(e lte.ENodeBID, id lte.CarrierID) {
		l := list(e)
		*l = slices.DeleteFunc(*l, func(x lte.CarrierID) bool { return x == id })
	}
	live := func() lte.CarrierID {
		for {
			if id := lte.CarrierID(r.IntN(len(n2.Carriers))); !dead[id] {
				return id
			}
		}
	}
	enbIn := func(m int) lte.ENodeBID {
		for {
			if e := lte.ENodeBID(r.IntN(len(n2.ENodeBs))); n2.ENodeBs[e].Market == m {
				return e
			}
		}
	}
	var changed []lte.CarrierID
	for k := 0; k < 1+r.IntN(4); k++ {
		switch r.IntN(4) {
		case 0: // new carrier
			e := lte.ENodeBID(r.IntN(len(n2.ENodeBs)))
			id := lte.CarrierID(len(n2.Carriers))
			n2.Carriers = append(n2.Carriers, lte.Carrier{ID: id, ENodeB: e, Market: n2.ENodeBs[e].Market,
				FrequencyMHz: []int{700, 1900, 2100}[r.IntN(3)]})
			*list(e) = append(*list(e), id)
			changed = append(changed, id)
		case 1: // move within the market
			id := live()
			c := &n2.Carriers[id]
			to := enbIn(c.Market)
			if to == c.ENodeB {
				continue
			}
			remove(c.ENodeB, id)
			c.ENodeB = to
			*list(to) = append(*list(to), id)
			changed = append(changed, id)
		case 2: // frequency change
			id := live()
			n2.Carriers[id].FrequencyMHz = []int{700, 1900, 2100}[r.IntN(3)]
			changed = append(changed, id)
		default: // tombstone
			id := live()
			if slices.Contains(changed, id) {
				continue
			}
			remove(n2.Carriers[id].ENodeB, id)
			dead[id] = true
			changed = append(changed, id)
		}
	}
	if err := n2.Validate(); err != nil {
		panic(err)
	}
	return n2, changed
}

// TestRebindMatchesBuild chains random deltas through Rebind and checks
// every carrier's neighbor list against a fresh BuildX2 of the updated
// inventory, that the reported carriers cover every list that changed,
// and that neighborhood memos carry over exactly for the markets the
// delta left alone.
func TestRebindMatchesBuild(t *testing.T) {
	pushed := 0
	for _, opts := range []Options{{}, {MaxCarrierNeighbors: 3}} {
		r := rand.New(rand.NewPCG(uint64(opts.MaxCarrierNeighbors), 9))
		n := randomNetwork(r, 3, 5)
		g := BuildX2(n, opts)
		dead := map[lte.CarrierID]bool{}
		for step := 0; step < 150; step++ {
			for e := range n.ENodeBs {
				g.hood(n, lte.ENodeBID(e), 1)
			}
			n2, changed := randomDelta(r, n, dead)
			g2, rebound := g.Rebind(n, n2, changed)
			want := BuildX2(n2, opts)
			if !slices.IsSorted(rebound) {
				t.Fatalf("step %d: rebound carriers not ascending: %v", step, rebound)
			}
			for i := range n2.Carriers {
				id := lte.CarrierID(i)
				got, exp := g2.CarrierNeighbors(id), want.CarrierNeighbors(id)
				if !slices.Equal(got, exp) {
					t.Fatalf("step %d: carrier %d: rebind %v, BuildX2 %v", step, id, got, exp)
				}
				if _, ok := slices.BinarySearch(rebound, id); !ok {
					if i >= len(n.Carriers) || !slices.Equal(g.CarrierNeighbors(id), exp) {
						t.Fatalf("step %d: carrier %d changed lists but was not reported", step, id)
					}
				} else if i < len(n.Carriers) && !slices.Contains(changed, id) {
					// An unchanged neighbor dropped from the list was
					// pushed past the cap by a carrier the delta added
					// ahead of it.
					for _, b := range g.CarrierNeighbors(id) {
						if !slices.Contains(changed, b) && !slices.Contains(exp, b) {
							pushed++
						}
					}
				}
			}
			touched := map[int]bool{}
			for _, id := range changed {
				if int(id) < len(n.Carriers) {
					touched[n.Carriers[id].Market] = true
				}
				touched[n2.Carriers[id].Market] = true
			}
			for e := range n2.ENodeBs {
				enb := lte.ENodeBID(e)
				m := n2.ENodeBs[e].Market
				if reused := g2.hoods[m] == g.hoods[m]; reused == touched[m] {
					t.Fatalf("step %d: market %d (touched %v): memo reused %v", step, m, touched[m], reused)
				}
				got := g2.hood(n2, enb, 1)
				if !slices.Equal(got, want.hood(n2, enb, 1)) {
					t.Fatalf("step %d: eNodeB %d: rebound neighborhood %v, built %v", step, e, got, want.hood(n2, enb, 1))
				}
				if !touched[m] && len(got) > 0 && &got[0] != &g.hood(n, enb, 1)[0] {
					t.Fatalf("step %d: eNodeB %d of untouched market %d recomputed its neighborhood", step, e, m)
				}
			}
			n, g = n2, g2
		}
	}
	t.Logf("%d unchanged neighbors pushed past the cap", pushed)
	if pushed == 0 {
		t.Fatal("no delta pushed an unchanged neighbor past the cap")
	}
}
