package geo

import (
	"testing"

	"auric/internal/lte"
)

// gridNetwork builds a tiny 2-market network: market 0 has a 3x3 grid of
// eNodeBs spaced 0.05 degrees apart (within the default X2 radius of their
// orthogonal neighbors), market 1 has one distant eNodeB. Each eNodeB has
// two carriers, at 700 and 1900 MHz.
func gridNetwork() *lte.Network {
	n := &lte.Network{
		Markets: []lte.Market{
			{ID: 0, Name: "M0", Timezone: "Eastern"},
			{ID: 1, Name: "M1", Timezone: "Pacific"},
		},
	}
	add := func(market int, lat, lon float64) {
		id := lte.ENodeBID(len(n.ENodeBs))
		e := lte.ENodeB{ID: id, Market: market, Lat: lat, Lon: lon}
		for _, f := range []int{700, 1900} {
			cid := lte.CarrierID(len(n.Carriers))
			n.Carriers = append(n.Carriers, lte.Carrier{
				ID: cid, ENodeB: id, Market: market, FrequencyMHz: f,
				Lat: lat, Lon: lon,
			})
			e.Carriers = append(e.Carriers, cid)
		}
		n.ENodeBs = append(n.ENodeBs, e)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			add(0, float64(i)*0.05, float64(j)*0.05)
		}
	}
	add(1, 100, 100)
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

func TestENodeBAdjacency(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	// Center eNodeB (index 4 at 0.05,0.05) should neighbor its 4
	// orthogonal grid neighbors (diagonals are at 0.0707 > 0.06 radius).
	nbs := g.ENodeBNeighbors(4)
	if len(nbs) != 4 {
		t.Fatalf("center eNodeB has %d X2 neighbors, want 4: %v", len(nbs), nbs)
	}
	want := map[lte.ENodeBID]bool{1: true, 3: true, 5: true, 7: true}
	for _, nb := range nbs {
		if !want[nb] {
			t.Errorf("unexpected neighbor %d", nb)
		}
	}
	// Corner eNodeB (index 0) has 2 orthogonal neighbors.
	if got := len(g.ENodeBNeighbors(0)); got != 2 {
		t.Errorf("corner eNodeB has %d neighbors, want 2", got)
	}
	// The isolated other-market eNodeB has none.
	if got := len(g.ENodeBNeighbors(9)); got != 0 {
		t.Errorf("isolated eNodeB has %d neighbors, want 0", got)
	}
}

func TestMarketBoundary(t *testing.T) {
	// Two eNodeBs within radius but in different markets must not relate.
	n := &lte.Network{
		Markets: []lte.Market{{ID: 0}, {ID: 1}},
		ENodeBs: []lte.ENodeB{
			{ID: 0, Market: 0, Lat: 0, Lon: 0},
			{ID: 1, Market: 1, Lat: 0.01, Lon: 0},
		},
	}
	g := BuildX2(n, Options{})
	if len(g.ENodeBNeighbors(0)) != 0 || len(g.ENodeBNeighbors(1)) != 0 {
		t.Error("X2 relation crossed a market boundary")
	}
}

func TestCarrierNeighbors(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	// Carrier 8 is the 700 MHz carrier of the center eNodeB (eNodeB 4):
	// carriers are numbered 2 per eNodeB, so eNodeB 4 hosts carriers 8, 9.
	nbs := g.CarrierNeighbors(8)
	if len(nbs) == 0 {
		t.Fatal("center carrier has no neighbors")
	}
	sameENB, sameFreq := 0, 0
	for _, nb := range nbs {
		o := &n.Carriers[nb]
		if o.ENodeB == 4 {
			sameENB++
			if o.FrequencyMHz == 700 {
				t.Error("co-sited neighbor has the same frequency")
			}
		} else {
			sameFreq++
			if o.FrequencyMHz != 700 {
				t.Errorf("inter-eNodeB neighbor at %d MHz, want 700", o.FrequencyMHz)
			}
		}
	}
	if sameENB != 1 {
		t.Errorf("co-sited neighbors = %d, want 1 (the 1900 carrier)", sameENB)
	}
	if sameFreq != 4 {
		t.Errorf("inter-eNodeB same-frequency neighbors = %d, want 4", sameFreq)
	}
}

func TestMaxCarrierNeighborsCap(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{MaxCarrierNeighbors: 2})
	for i := range n.Carriers {
		if got := len(g.CarrierNeighbors(lte.CarrierID(i))); got > 2 {
			t.Fatalf("carrier %d has %d neighbors, cap 2", i, got)
		}
	}
}

func TestCarriersWithinHops(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	enb := n.Carriers[8].ENodeB
	// Hop 0: only the eNodeB's own (co-sited) carriers.
	h0 := g.CarriersNearENodeB(n, enb, 0)
	if len(h0) != 2 || h0[0] != 8 || h0[1] != 9 {
		t.Fatalf("hops=0 scope = %v, want [8 9]", h0)
	}
	// Hop 1: own eNodeB + 4 orthogonal neighbors = 5 eNodeBs x2 carriers.
	h1 := g.CarriersNearENodeB(n, enb, 1)
	if len(h1) != 10 {
		t.Fatalf("hops=1 scope has %d carriers, want 10: %v", len(h1), h1)
	}
	// Hop 2 covers all 9 grid eNodeBs (center reaches all within 2 hops).
	h2 := g.CarriersNearENodeB(n, enb, 2)
	if len(h2) != 18 {
		t.Fatalf("hops=2 scope has %d carriers, want 18", len(h2))
	}
	for i := 1; i < len(h2); i++ {
		if h2[i-1] >= h2[i] {
			t.Fatalf("scope not in ascending id order: %v", h2)
		}
	}
	// The caller owns the result: mutating it leaves the memo intact.
	h1[0] = -1
	if again := g.CarriersNearENodeB(n, enb, 1); again[0] == -1 {
		t.Fatal("returned scope aliases the memoized neighborhood")
	}
	// The other market is unreachable at any hop count.
	for _, c := range g.CarriersNearENodeB(n, enb, 10) {
		if n.Carriers[c].Market != 0 {
			t.Fatal("scope leaked across markets")
		}
	}
}

func TestGraphSizes(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	if g.NumENodeBs() != len(n.ENodeBs) || g.NumCarriers() != len(n.Carriers) {
		t.Error("graph sizes disagree with network")
	}
}

func TestX2PropertiesOnGeneratedWorld(t *testing.T) {
	// Structural invariants over a realistic generated topology.
	n := gridNetwork()
	g := BuildX2(n, Options{})
	for i := range n.ENodeBs {
		id := lte.ENodeBID(i)
		for _, nb := range g.ENodeBNeighbors(id) {
			if nb == id {
				t.Fatal("eNodeB is its own X2 neighbor")
			}
			if n.ENodeBs[nb].Market != n.ENodeBs[id].Market {
				t.Fatal("X2 relation crosses markets")
			}
			// Symmetry: within-radius relations are mutual unless the
			// per-eNodeB cap truncated one side; with a 3x3 grid the cap
			// never binds.
			mutual := false
			for _, back := range g.ENodeBNeighbors(nb) {
				if back == id {
					mutual = true
				}
			}
			if !mutual {
				t.Fatalf("asymmetric X2 relation %d -> %d", id, nb)
			}
		}
	}
	for i := range n.Carriers {
		id := lte.CarrierID(i)
		for _, nb := range g.CarrierNeighbors(id) {
			if nb == id {
				t.Fatal("carrier is its own neighbor")
			}
			o := &n.Carriers[nb]
			c := &n.Carriers[id]
			sameENB := o.ENodeB == c.ENodeB
			if sameENB && o.FrequencyMHz == c.FrequencyMHz {
				t.Fatal("co-sited same-frequency neighbor")
			}
			if !sameENB && o.FrequencyMHz != c.FrequencyMHz {
				t.Fatal("inter-eNodeB neighbor on a different frequency")
			}
		}
	}
}

// TestCarriersNearENodeBMatchesCarrierScope checks, for every carrier, that
// the 1-hop scope of its eNodeB with the carrier dropped (what the engine's
// and the evaluator's callers do) is exactly the carriers on that eNodeB
// and its X2 neighbours, the carrier excluded, rebuilt here from the
// adjacency alone.
func TestCarriersNearENodeBMatchesCarrierScope(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	for _, c := range n.Carriers {
		enb := c.ENodeB
		want := map[lte.CarrierID]bool{}
		for _, e := range append([]lte.ENodeBID{enb}, g.ENodeBNeighbors(enb)...) {
			for _, id := range n.ENodeBs[e].Carriers {
				if id != c.ID {
					want[id] = true
				}
			}
		}
		got := 0
		for _, id := range g.CarriersNearENodeB(n, enb, 1) {
			if id == c.ID {
				continue
			}
			if !want[id] {
				t.Fatalf("carrier %d: scope holds %d, not on its eNodeB or an X2 neighbour", c.ID, id)
			}
			got++
		}
		if got != len(want) {
			t.Fatalf("carrier %d: scope has %d carriers, want %d", c.ID, got, len(want))
		}
	}
}
