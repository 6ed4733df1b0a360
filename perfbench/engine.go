package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"auric/internal/core"
	"auric/internal/geo"
	"auric/internal/health"
	"auric/internal/journal"
	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/obs"
	"auric/internal/snapshot"
)

// inputs is what a workload's daemon starts from, prepared by the
// benchmark before the first spawn.
type inputs struct {
	w       workload
	world   *netsim.World
	genTime time.Duration // netsim.Generate wall time
	cost    []int         // X2 neighbours per original carrier
	tail    string        // the prepared journal tail, never written again
	journal string        // the daemon's journal, a copy of tail
	snap    string        // the snapshot auricd -load reads ("" when generated)
	dir     string
}

// prepare generates the world and writes the untimed start-up inputs: the
// journal tail every start replays and, for snapshot workloads, the
// snapshot.
func prepare(w workload, seed uint64, dir string) (*inputs, error) {
	markets, enbs := w.worldSize()
	start := time.Now()
	world := netsim.Generate(netsim.Options{Seed: worldSeed, Markets: markets, ENodeBsPerMarket: enbs})
	in := &inputs{w: w, world: world, genTime: time.Since(start), cost: neighborCounts(world), dir: dir}
	in.tail, in.journal = dir+"/tail.jsonl", dir+"/journal.jsonl"
	if err := writeJournal(in.tail, tailDeltas(seed, world.Net, w.tail)); err != nil {
		return nil, err
	}
	if err := copyFile(in.journal, in.tail); err != nil {
		return nil, err
	}
	if w.snapshot {
		in.snap = dir + "/world.snap"
		if err := snapshot.Save(in.snap, world.Net, world.Current); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// writeJournal writes deltas as a fresh auricd delta journal.
func writeJournal(path string, deltas []wireDelta) error {
	if err := removeIfExists(path); err != nil {
		return err
	}
	j, _, err := journal.Open(path)
	if err != nil {
		return err
	}
	for _, d := range deltas {
		data, err := json.Marshal(d)
		if err != nil {
			j.Close()
			return err
		}
		if _, err := j.Append("delta", data); err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

// daemonArgs are the auricd flags of the workload: defaults everywhere
// except the world or snapshot, the journal and tracing (off).
func (in *inputs) daemonArgs() []string {
	args := []string{"-journal", in.journal, "-trace-sample", "0"}
	if in.snap != "" {
		return append(args, "-load", in.snap)
	}
	markets, enbs := in.w.worldSize()
	return append(args, "-markets", fmt.Sprint(markets), "-enbs", fmt.Sprint(enbs))
}

// resolve turns a journaled wire delta into the engine delta auricd
// applies for it.
func resolve(wd wireDelta) (core.Delta, error) {
	var d core.Delta
	for _, it := range wd.Upserts {
		c, err := it.Carrier.carrier()
		if err != nil {
			return d, err
		}
		d.Upserts = append(d.Upserts, core.Upsert{Carrier: c})
	}
	for _, id := range wd.Tombstones {
		d.Tombstones = append(d.Tombstones, lte.CarrierID(id))
	}
	return d, nil
}

// startup times the layers of one in-process start.
type startup struct {
	snapshotLoad, buildX2, load, journalOpen, replay time.Duration
}

// buildEngine starts an in-process ShardedEngine the way auricd starts:
// the same options (local scoping, default workers, 4096 cache entries),
// the same source (generated world or snapshot + X2 build), and the same
// journal replay. A non-nil observer is attached before the first load,
// as auricd attaches its health tracker.
//
// timeSnapshot also times the snapshot layers when the workload generates
// its world, on a snapshot of the same world, so that every workload
// reports them.
func (in *inputs) buildEngine(observer core.Observer, tracker *health.Tracker, timeSnapshot bool) (*core.ShardedEngine, startup, error) {
	var st startup
	net, x2, cfg := in.world.Net, in.world.X2, in.world.Current
	snapPath := in.snap
	if snapPath == "" && timeSnapshot {
		snapPath = in.dir + "/layer.snap"
		if _, err := os.Stat(snapPath); err != nil {
			if err := snapshot.Save(snapPath, net, cfg); err != nil {
				return nil, st, err
			}
		}
	}
	if snapPath != "" {
		t := time.Now()
		snet, scfg, err := snapshot.Load(snapPath)
		if err != nil {
			return nil, st, err
		}
		st.snapshotLoad = time.Since(t)
		t = time.Now()
		sx2 := geo.BuildX2(snet, geo.Options{})
		st.buildX2 = time.Since(t)
		if in.snap != "" {
			net, x2, cfg = snet, sx2, scfg
		}
	}

	se := core.NewSharded(cfg.Schema(), core.Options{Local: true, CacheEntries: 4096})
	if tracker != nil {
		tracker.Bind(se)
	}
	if observer != nil {
		se.SetObserver(observer)
	}
	t := time.Now()
	if _, err := se.Load(net, x2, cfg); err != nil {
		return nil, st, err
	}
	st.load = time.Since(t)

	// Open a copy: journal.Open may repair a torn tail in place.
	jpath := in.dir + "/tail-copy.jsonl"
	if err := copyFile(jpath, in.tail); err != nil {
		return nil, st, err
	}
	t = time.Now()
	j, entries, err := journal.Open(jpath)
	if err != nil {
		return nil, st, err
	}
	st.journalOpen = time.Since(t)
	j.Close()
	t = time.Now()
	for _, e := range entries {
		var wd wireDelta
		if err := json.Unmarshal(e.Data, &wd); err != nil {
			return nil, st, fmt.Errorf("journal seq %d: %w", e.Seq, err)
		}
		d, err := resolve(wd)
		if err != nil {
			return nil, st, fmt.Errorf("journal seq %d: %w", e.Seq, err)
		}
		if _, err := se.Apply(d); err != nil {
			return nil, st, fmt.Errorf("journal seq %d: apply: %w", e.Seq, err)
		}
	}
	st.replay = time.Since(t)
	return se, st, nil
}

// compactedEngine starts an in-process engine the way auricd restarts
// from a compacted journal: load the snapshot, build its X2 graph, train,
// and re-apply its tombstones.
func (in *inputs) compactedEngine() (*core.ShardedEngine, *lte.Network, []lte.CarrierID, error) {
	net, cfg, tombs, _, err := snapshot.LoadFull(in.journal + ".snapshot")
	if err != nil {
		return nil, nil, nil, err
	}
	se := core.NewSharded(cfg.Schema(), core.Options{Local: true, CacheEntries: 4096})
	if _, err := se.Load(net, geo.BuildX2(net, geo.Options{}), cfg); err != nil {
		return nil, nil, nil, err
	}
	if len(tombs) > 0 {
		if _, err := se.Apply(core.Delta{Tombstones: tombs}); err != nil {
			return nil, nil, nil, err
		}
	}
	return se, net, tombs, nil
}

// newTracker builds a health tracker with auricd's default thresholds on a
// private registry.
func newTracker() *health.Tracker {
	return health.New(obs.New(), health.Config{
		WindowSize:      2048,
		MinWindow:       256,
		MaxPSI:          0.25,
		MaxUnsupported:  0.5,
		MaxDisagreement: 0.02,
		ShadowProbes:    64,
	})
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
