package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"auric/internal/core"
	"auric/internal/geo"
	"auric/internal/health"
	"auric/internal/lte"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public call. Spans of one replayed operation share op; parent is the
// index of the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; a disabled tracer records nothing and
// costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	op    int
	spans []span
	stack []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now(), op: -1} }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// rename relabels a closed span (a recommend is only known to be a cache
// hit or miss once it returns).
func (t *tracer) rename(id int, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// selfTimes returns every span's duration minus the time its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// byName collects the self times of every span named name, in unit.
func (t *tracer) byName(self []time.Duration, name string, unit time.Duration) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/float64(unit))
		}
	}
	return out
}

// pathCheck compares, for every root span, the self times of its whole
// subtree with the root's duration and returns the worst relative gap.
func (t *tracer) pathCheck(self []time.Duration) (worst float64, roots int) {
	sum := make(map[int]time.Duration)
	root := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.Parent]
		}
		sum[root[i]] += self[i]
	}
	for r, total := range sum {
		d := t.spans[r].dur()
		if d <= 0 {
			continue
		}
		gap := float64(total-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
		roots++
	}
	return worst, roots
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedObserver forwards the engine's observer calls to a health tracker,
// timing each one as a child of whatever span is open.
type tracedObserver struct {
	t *tracer
	h *health.Tracker
}

func (o tracedObserver) ObserveLoad(gen int64, net *lte.Network, x2 *geo.Graph, cfg *lte.Config) {
	o.h.ObserveLoad(gen, net, x2, cfg)
}

func (o tracedObserver) ObserveApply(gen int64, net *lte.Network, upserts, tombstones []lte.CarrierID) {
	id := o.t.begin("health.observe_apply")
	o.h.ObserveApply(gen, net, upserts, tombstones)
	o.t.end(id)
}

func (o tracedObserver) ObserveServed(market int, c *lte.Carrier, recs []core.Recommendation) {
	id := o.t.begin("health.observe_served")
	o.h.ObserveServed(market, c, recs)
	o.t.end(id)
}
