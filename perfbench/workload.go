package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"auric/internal/lte"
	"auric/internal/netsim"
)

// workload is one traffic mix the benchmark drives against auricd.
type workload struct {
	name string
	// markets and enbs size the generated world (auricd -markets/-enbs);
	// zero keeps the daemon's defaults (4 x 30).
	markets, enbs int
	// snapshot starts auricd from a benchmark-written snapshot (-load)
	// instead of generating the world in the daemon.
	snapshot bool
	// tail is the number of journal deltas written before the daemon
	// starts; every start replays them.
	tail int

	// Reads. openRate > 0 sends them open loop (jittered arrivals at that
	// many requests per second, see arrivals); otherwise two closed-loop
	// clients send back to back. hotKeys > 0 draws carriers Zipf(zipfS)
	// over that many seeded carriers; zero reads each carrier at most once
	// (coldPlan).
	pairwise bool
	openRate float64
	hotKeys  int

	// feedRate > 0 runs one open-loop ingest feed beside the reads: that
	// many mutations per second, evenly spaced, on a connection of its own.
	feedRate float64
	// probeOps closed-loop ingest mutations run after the read phase (on
	// workloads without churn), so every workload reports ingest acks.
	probeOps int
}

const (
	zipfS = 1.2
	// worldSeed is auricd's default -seed: the world is fixed, the
	// benchmark seed only drives the requests.
	worldSeed = 1
	// defaultMarkets and defaultENodeBs are auricd's world defaults.
	defaultMarkets = 4
	defaultENodeBs = 30
)

var workloads = []workload{
	{name: "launch-cold", markets: 28, enbs: 30, tail: 8, pairwise: true, openRate: 60, probeOps: 240},
	{name: "poll-hot", tail: 8, hotKeys: 64, probeOps: 320},
	{name: "ingest-churn", snapshot: true, tail: 120, openRate: 120, hotKeys: 64, feedRate: 10},
}

// churn reports whether the workload runs an ingest feed beside its reads.
func (w workload) churn() bool { return w.feedRate > 0 }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) worldSize() (markets, enbs int) {
	markets, enbs = defaultMarkets, defaultENodeBs
	if w.markets > 0 {
		markets = w.markets
	}
	if w.enbs > 0 {
		enbs = w.enbs
	}
	return markets, enbs
}

// Random streams: every generator draws from its own PCG stream of the
// benchmark seed, so adding draws to one never shifts another.
const (
	streamOrder = iota + 1
	streamHot
	streamArrivals
	streamClient // + client index
	streamTail   = 64
	streamFeed   = 65
	streamProbe  = 66
	streamSample = 67
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// coldPlan picks k distinct carriers for the launch-cold timed reads, in a
// seeded order, and warmCold other carriers for its warm-up. The pick is
// stratified by cost: carriers sorted by cost fall into k equal strata and
// each stratum gives one seeded carrier, so every seed asks for the same
// spread of cheap and expensive carriers.
func coldPlan(seed uint64, cost []int, k int) (keys, warm []int) {
	n := len(cost)
	byCost := make([]int, n)
	for i := range byCost {
		byCost[i] = i
	}
	sort.SliceStable(byCost, func(a, b int) bool { return cost[byCost[a]] < cost[byCost[b]] })
	r := newRand(seed, streamOrder)
	chosen := make([]bool, n)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		id := byCost[lo+r.IntN(hi-lo)]
		keys = append(keys, id)
		chosen[id] = true
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, id := range r.Perm(n) {
		if len(warm) == warmCold {
			break
		}
		if !chosen[id] {
			warm = append(warm, id)
		}
	}
	return keys, warm
}

// neighborCounts is each carrier's X2 neighbour count.
func neighborCounts(world *netsim.World) []int {
	out := make([]int, len(world.Net.Carriers))
	for i := range out {
		out[i] = len(world.X2.CarrierNeighbors(lte.CarrierID(i)))
	}
	return out
}

// hotSet picks k distinct carriers of the n original ones.
func hotSet(seed uint64, n, k int) []int {
	return newRand(seed, streamHot).Perm(n)[:k]
}

// zipfKeys draws keys Zipf(zipfS)-distributed over keys: keys[0] is the
// hottest.
type zipfKeys struct {
	z    *rand.Zipf
	keys []int
}

func newZipfKeys(seed, stream uint64, keys []int) *zipfKeys {
	return &zipfKeys{z: rand.NewZipf(newRand(seed, stream), zipfS, 1, uint64(len(keys)-1)), keys: keys}
}

func (z *zipfKeys) next() int { return z.keys[z.z.Uint64()] }

// arrivals is a jittered schedule at rate per second over [0, span): the
// offsets at which open-loop requests fall due. The span is cut into
// rate x span equal slots and each request falls due at a seeded offset
// within its slot, so every seed offers the same load, arrivals stay
// random, and no more than two fall within one slot's length: the
// queueing of Poisson bursts would add its own spread to the tail.
func arrivals(seed uint64, rate float64, span time.Duration) []time.Duration {
	r := newRand(seed, streamArrivals)
	out := make([]time.Duration, int(rate*span.Seconds()))
	slot := span / time.Duration(max(len(out), 1))
	for i := range out {
		out[i] = time.Duration(i)*slot + time.Duration(r.Int64N(int64(slot)))
	}
	return out
}

// mutation is one live-ingest operation of a feed: an upsert of a clone
// of donor, or a tombstone of target.
type mutation struct {
	upsert bool
	donor  int
	target int
}

// feed alternates upserting a clone of a seeded donor carrier and
// deleting the clone it created last, so the inventory stays bounded while
// every operation patches models and swaps a generation. Donors visit the
// markets in turn (from a seeded first market), so every seed spreads its
// ingest cost evenly over the shards.
type feed struct {
	r       *rand.Rand
	markets [][]int // original carriers by market
	next    int     // market of the next upsert
	pending int     // id of the last clone not yet deleted, or -1
}

func newFeed(seed, stream uint64, net *lte.Network) *feed {
	f := &feed{r: newRand(seed, stream), markets: make([][]int, len(net.Markets)), pending: -1}
	for i := range net.Carriers {
		m := net.Carriers[i].Market
		f.markets[m] = append(f.markets[m], i)
	}
	f.next = f.r.IntN(len(f.markets))
	return f
}

func (f *feed) nextMutation() mutation {
	if f.pending >= 0 {
		return mutation{target: f.pending}
	}
	for len(f.markets[f.next]) == 0 {
		f.next = (f.next + 1) % len(f.markets)
	}
	ids := f.markets[f.next]
	f.next = (f.next + 1) % len(f.markets)
	return mutation{upsert: true, donor: ids[f.r.IntN(len(ids))]}
}

// acked records the outcome of the mutation nextMutation returned: a
// successful upsert leaves its clone pending deletion, anything else clears
// it.
func (f *feed) acked(m mutation, ok bool, id int) {
	if m.upsert && ok {
		f.pending = id
		return
	}
	if !m.upsert {
		f.pending = -1
	}
}

// carrierSpec, ingestItem and wireDelta are auricd's live-ingest wire
// format (POST /v1/carriers bodies and journal entries).
type carrierSpec struct {
	ID              *int    `json:"id,omitempty"`
	ENodeB          int     `json:"enodeb"`
	Face            int     `json:"face"`
	FrequencyMHz    int     `json:"frequencyMHz"`
	Type            string  `json:"type,omitempty"`
	Info            string  `json:"info,omitempty"`
	Morphology      string  `json:"morphology,omitempty"`
	BandwidthMHz    int     `json:"bandwidthMHz"`
	MIMOMode        string  `json:"mimoMode"`
	Hardware        string  `json:"hardware"`
	CellSizeMi      int     `json:"cellSizeMi"`
	TAC             int     `json:"tac"`
	Market          int     `json:"market"`
	Vendor          string  `json:"vendor"`
	NeighborChan    int     `json:"neighborChan"`
	NeighborsOnENB  int     `json:"neighborsOnENB"`
	SoftwareVersion string  `json:"softwareVersion"`
	Terrain         string  `json:"terrain,omitempty"`
	Lat             float64 `json:"lat"`
	Lon             float64 `json:"lon"`
}

type ingestItem struct {
	Carrier carrierSpec `json:"carrier"`
}

type wireDelta struct {
	Upserts    []ingestItem `json:"upserts,omitempty"`
	Tombstones []int        `json:"tombstones,omitempty"`
}

// cloneSpec is the wire form of a new carrier copying donor's attributes.
func cloneSpec(donor *lte.Carrier) carrierSpec {
	c := donor
	return carrierSpec{
		ENodeB: int(c.ENodeB), Face: c.Face, FrequencyMHz: c.FrequencyMHz,
		Type: c.Type.String(), Info: c.Info, Morphology: c.Morphology.String(),
		BandwidthMHz: c.BandwidthMHz, MIMOMode: c.MIMOMode, Hardware: c.Hardware,
		CellSizeMi: c.CellSizeMi, TAC: c.TAC, Market: c.Market, Vendor: c.Vendor,
		NeighborChan: c.NeighborChan, NeighborsOnENB: c.NeighborsOnENB,
		SoftwareVersion: c.SoftwareVersion, Terrain: c.Terrain.String(),
		Lat: c.Lat, Lon: c.Lon,
	}
}

// carrier resolves a wire spec the way auricd does: enum names parse to
// their codes and a missing id creates a carrier.
func (cs carrierSpec) carrier() (lte.Carrier, error) {
	c := lte.Carrier{
		ID: -1, ENodeB: lte.ENodeBID(cs.ENodeB), Face: cs.Face, FrequencyMHz: cs.FrequencyMHz,
		Info: cs.Info, BandwidthMHz: cs.BandwidthMHz, MIMOMode: cs.MIMOMode, Hardware: cs.Hardware,
		CellSizeMi: cs.CellSizeMi, TAC: cs.TAC, Market: cs.Market, Vendor: cs.Vendor,
		NeighborChan: cs.NeighborChan, NeighborsOnENB: cs.NeighborsOnENB,
		SoftwareVersion: cs.SoftwareVersion, Lat: cs.Lat, Lon: cs.Lon,
	}
	if cs.ID != nil {
		c.ID = lte.CarrierID(*cs.ID)
	}
	var err error
	if c.Type, err = lte.ParseCarrierType(cs.Type); err != nil {
		return c, err
	}
	if c.Morphology, err = lte.ParseMorphology(cs.Morphology); err != nil {
		return c, err
	}
	c.Terrain, err = lte.ParseTerrain(cs.Terrain)
	return c, err
}

// wire is the journal form of a mutation.
func (m mutation) wire(net *lte.Network) wireDelta {
	if m.upsert {
		return wireDelta{Upserts: []ingestItem{{Carrier: cloneSpec(&net.Carriers[m.donor])}}}
	}
	return wireDelta{Tombstones: []int{m.target}}
}

// request is the HTTP form of a mutation.
func (m mutation) request(net *lte.Network) (method, path string, body []byte) {
	if m.upsert {
		body, _ = json.Marshal(ingestItem{Carrier: cloneSpec(&net.Carriers[m.donor])})
		return "POST", "/v1/carriers", body
	}
	return "DELETE", "/v1/carriers/" + strconv.Itoa(m.target), nil
}

// tailDeltas is the journal tail written before the daemon starts: n
// mutations of a feed on its own stream, with the ids auricd will assign
// (new carriers take the next id of the append-only inventory).
func tailDeltas(seed uint64, net *lte.Network, n int) []wireDelta {
	f := newFeed(seed, streamTail, net)
	next := len(net.Carriers)
	out := make([]wireDelta, 0, n)
	for i := 0; i < n; i++ {
		m := f.nextMutation()
		out = append(out, m.wire(net))
		if m.upsert {
			f.acked(m, true, next)
			next++
		} else {
			f.acked(m, true, 0)
		}
	}
	return out
}

// recommendBody is the POST /v1/recommend body for one carrier.
func recommendBody(id int, pairwise bool) []byte {
	if pairwise {
		return []byte(`{"carrier":` + strconv.Itoa(id) + `,"pairwise":true}`)
	}
	return []byte(`{"carrier":` + strconv.Itoa(id) + `}`)
}
