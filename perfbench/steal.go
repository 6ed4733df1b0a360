package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealLimit is the share of this machine's CPU time the hypervisor may
// steal in one slice before the slice counts as disturbed: the host ran
// something else while the benchmark's CPUs were runnable.
const stealLimit = 0.025

// stealSlice is how often the monitor reads /proc/stat.
const stealSlice = time.Second

// stealMargin is how long after a disturbed slice operations still count
// as disturbed: the backlog the slice left takes time to drain.
const stealMargin = 500 * time.Millisecond

// stealMonitor records the host's cumulative stolen CPU time (the steal
// column of /proc/stat) once per slice, so operations that overlap a
// slice in which the host took the CPUs away can be told apart.
type stealMonitor struct {
	mu    sync.Mutex
	at    []time.Duration // sample times, offsets from the run's epoch
	ticks []float64       // cumulative steal, USER_HZ ticks
	cpus  int
	stop  chan struct{}
	done  chan struct{}
	// share is the stolen share of each slice's CPU time, set by
	// stopMonitor.
	share []float64
}

// interval is a span of the run, as offsets from its epoch.
type interval struct{ lo, hi time.Duration }

// startStealMonitor samples until stopMonitor; now gives the offset from
// the run's epoch.
func startStealMonitor(now func() time.Duration) (*stealMonitor, error) {
	m := &stealMonitor{cpus: runtime.NumCPU(), stop: make(chan struct{}), done: make(chan struct{})}
	if err := m.sample(now()); err != nil {
		return nil, err
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealSlice)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.sample(now())
				return
			case <-t.C:
				m.sample(now())
			}
		}
	}()
	return m, nil
}

// stopMonitor takes a last sample, waits for the sampler to end and
// works out each slice's stolen share.
func (m *stealMonitor) stopMonitor() {
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shares()
}

func (m *stealMonitor) shares() {
	for k := 0; k+1 < len(m.at); k++ {
		capacity := (m.at[k+1] - m.at[k]).Seconds() * float64(m.cpus) * clockTicks
		m.share = append(m.share, (m.ticks[k+1]-m.ticks[k])/max(capacity, 1))
	}
}

func (m *stealMonitor) sample(at time.Duration) error {
	ticks, err := readSteal()
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.at = append(m.at, at)
	m.ticks = append(m.ticks, ticks)
	m.mu.Unlock()
	return nil
}

// readSteal returns the steal column of the aggregate cpu line of
// /proc/stat.
func readSteal() (float64, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no steal column in %q", line)
	}
	return strconv.ParseFloat(f[8], 64)
}

// disturbedSpans are the slices stealing more than cut, each extended by
// stealMargin, merged and in order.
func (m *stealMonitor) disturbedSpans(cut float64) []interval {
	var bad []interval
	for k, sh := range m.share {
		if sh <= cut {
			continue
		}
		lo, hi := m.at[k], m.at[k+1]+stealMargin
		if n := len(bad); n > 0 && lo <= bad[n-1].hi {
			bad[n-1].hi = max(bad[n-1].hi, hi)
			continue
		}
		bad = append(bad, interval{lo, hi})
	}
	return bad
}

func overlaps(bad []interval, from, to time.Duration) bool {
	for _, b := range bad {
		if b.lo <= to && b.hi >= from {
			return true
		}
	}
	return false
}

// timedOp is one operation's latency and the interval it occupied, from
// when it fell due (or was sent) until its reply.
type timedOp struct {
	from, done time.Duration
	ms         float64
}

// steadyPart is what quiet kept of a set of operations.
type steadyPart struct {
	lat     []float64 // latencies of the kept operations, ms
	perS    float64   // operations completed per second outside disturbed spans
	dropped int       // operations left out
	cut     float64   // stolen share above which a slice was disturbed
	slices  int       // disturbed slices
}

// quiet keeps the part of ops the host left alone: the latencies of the
// operations that overlap no disturbed span, and the rate of operations
// completed outside them over [from, to]. A slice is disturbed when the
// host stole more than stealLimit of its CPU time; when that would leave
// fewer than a third of the operations, the limit rises, slice by slice,
// until a third are kept: a run on a busy host is then measured where the
// host disturbed it least.
func (m *stealMonitor) quiet(ops []timedOp, from, to time.Duration) steadyPart {
	cuts := []float64{stealLimit}
	for _, sh := range m.share {
		if sh > stealLimit {
			cuts = append(cuts, sh)
		}
	}
	sort.Float64s(cuts)
	for _, cut := range cuts {
		bad := m.disturbedSpans(cut)
		p := steadyPart{cut: cut}
		var done int
		for _, op := range ops {
			if !overlaps(bad, op.done, op.done) {
				done++
			}
			if overlaps(bad, op.from, op.done) {
				p.dropped++
			} else {
				p.lat = append(p.lat, op.ms)
			}
		}
		if 3*len(p.lat) < len(ops) {
			continue
		}
		quiet := to - from
		for _, b := range bad {
			if lo, hi := max(b.lo, from), min(b.hi, to); hi > lo {
				quiet -= hi - lo
			}
		}
		if quiet <= 0 || done == 0 {
			continue
		}
		p.perS = float64(done) / quiet.Seconds()
		for _, sh := range m.share {
			if sh > cut {
				p.slices++
			}
		}
		return p
	}
	p := steadyPart{perS: float64(len(ops)) / (to - from).Seconds()}
	for _, op := range ops {
		p.lat = append(p.lat, op.ms)
	}
	return p
}
