package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"auric/internal/lte"
	"auric/internal/netsim"
)

func smallWorld(t *testing.T) *netsim.World {
	t.Helper()
	return netsim.Generate(netsim.Options{Seed: worldSeed, Markets: 2, ENodeBsPerMarket: 8})
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	world := smallWorld(t)
	n := len(world.Net.Carriers)
	draw := func(seed uint64) []any {
		zk := newZipfKeys(seed, streamClient, hotSet(seed, n, 16))
		var zs []int
		for i := 0; i < 200; i++ {
			zs = append(zs, zk.next())
		}
		f := newFeed(seed, streamFeed, world.Net)
		var ms []mutation
		for i := 0; i < 20; i++ {
			m := f.nextMutation()
			ms = append(ms, m)
			f.acked(m, true, 1000+i)
		}
		var plans []readPlan
		for _, w := range workloads {
			plans = append(plans, planReads(w, seed, neighborCounts(world), 3*time.Second))
		}
		keys, warm := coldPlan(seed, neighborCounts(world), 40)
		return []any{keys, warm, zs, arrivals(seed, 100, 5*time.Second), ms, tailDeltas(seed, world.Net, 12), plans}
	}
	a, b, c := draw(7), draw(7), draw(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("generator %d differs between two draws of seed 7", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("generator %d is the same for seeds 7 and 8", i)
		}
	}
}

func TestLaunchColdNeverRepeatsAKey(t *testing.T) {
	w, err := findWorkload("launch-cold")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{6498, 500} {
		cost := make([]int, n)
		for i := range cost {
			cost[i] = i * 7919 % 37
		}
		for seed := uint64(1); seed <= 5; seed++ {
			p := planReads(w, seed, cost, 60*time.Second)
			if len(p.keys) != len(p.sched) || len(p.keys) == 0 {
				t.Fatalf("n=%d seed %d: %d keys for %d arrivals", n, seed, len(p.keys), len(p.sched))
			}
			seen := map[int]bool{}
			for _, k := range append(append([]int(nil), p.keys...), p.warm...) {
				if k < 0 || k >= n {
					t.Fatalf("key %d outside [0, %d)", k, n)
				}
				if seen[k] {
					t.Fatalf("n=%d seed %d: key %d repeats within a run", n, seed, k)
				}
				seen[k] = true
			}
			for _, k := range p.sampled {
				if !seen[k] {
					t.Fatalf("sampled key %d was never requested", k)
				}
			}
		}
	}
}

func TestQuantileKnownInputs(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := quantile(hundred, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestOracleRejectsTamperedResponse(t *testing.T) {
	dir := t.TempDir()
	w := workload{name: "test", markets: 2, enbs: 8, tail: 4, pairwise: true}
	in, err := prepare(w, 3, dir)
	if err != nil {
		t.Fatal(err)
	}
	se, _, err := in.buildEngine(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	net, x2, _, err := se.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	id := 5
	recs, err := se.RecommendContext(context.Background(), &net.Carriers[id], x2.CarrierNeighbors(lte.CarrierID(id)))
	if err != nil {
		t.Fatal(err)
	}
	or := newOracle(in.world.Current.Schema())
	good := &recResponse{Carrier: id, Recommendations: dtos(recs)}
	if _, err := or.shape(id, true, good); err != nil {
		t.Fatalf("untampered response rejected: %v", err)
	}
	if err := equalRecs(good.Recommendations, dtos(recs)); err != nil {
		t.Fatalf("untampered response differs from the reference: %v", err)
	}

	tamper := func(f func(r *recResponse)) *recResponse {
		r := &recResponse{Carrier: id, Recommendations: append([]recDTO(nil), good.Recommendations...)}
		f(r)
		return r
	}
	p0 := in.world.Current.Schema().At(or.index[good.Recommendations[0].Param])
	shapeCases := map[string]*recResponse{
		"out of range":    tamper(func(r *recResponse) { r.Recommendations[0].Value = p0.Max + 1 }),
		"missing entry":   tamper(func(r *recResponse) { r.Recommendations = r.Recommendations[1:] }),
		"duplicate entry": tamper(func(r *recResponse) { r.Recommendations[1] = r.Recommendations[0] }),
		"wrong carrier":   tamper(func(r *recResponse) { r.Carrier = id + 1 }),
		"unknown param":   tamper(func(r *recResponse) { r.Recommendations[0].Param = "noSuchParam" }),
	}
	for name, r := range shapeCases {
		if _, err := or.shape(id, true, r); err == nil {
			t.Errorf("%s: shape check accepted a tampered response", name)
		}
	}
	// A value moved within its range passes the schema but not the
	// reference comparison.
	inRange := tamper(func(r *recResponse) {
		v := &r.Recommendations[0].Value
		if *v+p0.Step <= p0.Max {
			*v += p0.Step
		} else {
			*v -= p0.Step
		}
	})
	if _, err := or.shape(id, true, inRange); err != nil {
		t.Fatalf("in-range tamper should pass the shape check: %v", err)
	}
	if err := equalRecs(inRange.Recommendations, dtos(recs)); err == nil {
		t.Error("reference comparison accepted a tampered value")
	}

	body := []byte("{\n  \"carrier\": 5,\n  \"traceId\": \"0123abcd\"\n}\n")
	other := []byte("{\n  \"carrier\": 5,\n  \"traceId\": \"ffff0000\"\n}\n")
	if string(stripTraceID(nil, body)) != string(stripTraceID(nil, other)) {
		t.Error("answers differing only in traceId should compare equal")
	}
	if string(stripTraceID(nil, body)) == string(stripTraceID(nil, []byte(strings.Replace(string(other), "5", "6", 1)))) {
		t.Error("a tampered body compared equal")
	}

	var acks ackChecker
	acks.lastID = len(net.Carriers) - 1
	up := mutation{upsert: true}
	if _, err := acks.check(up, []byte(`{"generation": 7, "results": [{"id": 900}]}`)); err != nil {
		t.Fatalf("valid ack rejected: %v", err)
	}
	for _, bad := range []string{
		`{"generation": 8, "results": [{"id": 900}]}`, // id reused
		`{"generation": 7, "results": [{"id": 901}]}`, // generation did not rise
	} {
		if _, err := acks.check(up, []byte(bad)); err == nil {
			t.Errorf("ack %s accepted", bad)
		}
	}
	if _, err := acks.check(mutation{target: 900}, []byte(`{"generation": 9, "tombstoned": 899}`)); err == nil {
		t.Error("delete ack naming another carrier accepted")
	}
}

// TestPreparedJournalReplays builds auricd from this repository and starts
// it on a prepared snapshot and journal tail: it must replay every entry
// and serve, and the in-process replay must agree on the inventory.
func TestPreparedJournalReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts auricd")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "auricd")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/auricd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building auricd: %v\n%s", err, out)
	}
	for _, snap := range []bool{false, true} {
		w := workload{name: "test", markets: 2, enbs: 8, tail: 9, snapshot: snap}
		in, err := prepare(w, 5, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		d, err := startDaemon(bin, in.daemonArgs(), filepath.Join(in.dir, "auricd.log"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.waitReady(recommendBody(0, false), time.Minute)
		if err != nil {
			d.stop()
			t.Fatal(err)
		}
		s := newSender(d.base)
		status, body, err := s.do("GET", "/v1/network", nil)
		s.close()
		d.stop()
		if err != nil || status != 200 {
			t.Fatalf("GET /v1/network: %d %v", status, err)
		}
		logData, _ := os.ReadFile(filepath.Join(in.dir, "auricd.log"))
		if !strings.Contains(string(logData), "9 journal entries replayed") {
			t.Errorf("snapshot=%v: auricd did not report replaying the 9-entry tail:\n%s", snap, logData)
		}
		se, _, err := in.buildEngine(nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		net, _, _, _ := se.Inventory()
		// 9 alternating mutations create 5 carriers.
		if want := len(in.world.Net.Carriers) + 5; len(net.Carriers) != want ||
			!strings.Contains(string(body), `"carriers": `+strconv.Itoa(want)) {
			t.Errorf("snapshot=%v: in-process inventory %d carriers, daemon %s, want %d", snap, len(net.Carriers), body, want)
		}
	}
}

// stolenRun is a 10 s run on two CPUs sampled once a second, where the
// host stole steal[k] ticks in slice k, with one 1 ms operation falling
// due every 100 ms; operations due in a slice stealing 20% take 100 ms
// instead.
func stolenRun(steal []float64) (*stealMonitor, []timedOp) {
	m := &stealMonitor{cpus: 2}
	var total float64
	for k := 0; k <= len(steal); k++ {
		m.at = append(m.at, time.Duration(k)*time.Second)
		m.ticks = append(m.ticks, total)
		if k < len(steal) {
			total += steal[k]
		}
	}
	m.shares()
	var ops []timedOp
	for i := 0; i < 10*len(steal); i++ {
		from := time.Duration(i) * 100 * time.Millisecond
		lat := time.Millisecond
		if steal[i/10] >= 40 {
			lat = 100 * time.Millisecond
		}
		ops = append(ops, timedOp{from: from, done: from + lat, ms: ms(lat)})
	}
	return m, ops
}

func TestQuietLeavesOutStolenSlices(t *testing.T) {
	// Slice 3 loses 20% of its CPU time to the host; the rest nothing.
	m, ops := stolenRun([]float64{0, 0, 0, 40, 0, 0, 0, 0, 0, 0})
	p := m.quiet(ops, 0, 10*time.Second)
	if p.dropped == 0 || p.slices != 1 || p.cut != stealLimit {
		t.Fatalf("dropped %d ops over %d slices at cut %v, want slice 3 left out at %v", p.dropped, p.slices, p.cut, stealLimit)
	}
	// Slice 3 and the margin after it: due from 3.0 s to 4.5 s.
	if want := 16; p.dropped != want {
		t.Errorf("dropped %d ops, want %d", p.dropped, want)
	}
	if got := quantile(p.lat, 1); got != 1 {
		t.Errorf("slowest kept op took %v ms, want 1 (the stolen slice's ops kept)", got)
	}
	if math.Abs(p.perS-10) > 0.5 {
		t.Errorf("rate outside the stolen slice = %v/s, want 10", p.perS)
	}

	// A busy host throughout: the third of the run it disturbed least is
	// kept, at a cut above stealLimit.
	m, ops = stolenRun([]float64{40, 20, 12, 40, 12, 12, 12, 20, 40, 40})
	p = m.quiet(ops, 0, 10*time.Second)
	if 3*len(p.lat) < len(ops) || p.cut <= stealLimit {
		t.Fatalf("busy host: kept %d of %d ops at cut %v", len(p.lat), len(ops), p.cut)
	}
	if got := quantile(p.lat, 1); got != 1 {
		t.Errorf("busy host: slowest kept op took %v ms, want 1", got)
	}

	// A quiet host: nothing is left out.
	m, ops = stolenRun(make([]float64, 10))
	if p = m.quiet(ops, 0, 10*time.Second); p.dropped != 0 || len(p.lat) != len(ops) {
		t.Errorf("quiet host: dropped %d of %d ops", p.dropped, len(ops))
	}
}
