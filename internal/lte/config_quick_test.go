package lte

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"auric/internal/paramspec"
)

// Property: for any (carrier, parameter, raw value), Set followed by Get
// returns the quantized value, which is always valid on the grid; and
// setting one site never disturbs another.
func TestConfigSetGetProperty(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 8)
	singular := schema.Singular()

	f := func(carrier uint8, paramSel uint8, raw float64, other uint8) bool {
		id := CarrierID(int(carrier) % 8)
		pi := singular[int(paramSel)%len(singular)]
		p := schema.At(pi)
		if raw != raw || raw > 1e12 || raw < -1e12 { // NaN / extreme
			return true
		}
		otherID := CarrierID(int(other) % 8)
		var before float64
		if otherID != id {
			before = cfg.Get(otherID, pi)
		}
		cfg.Set(id, pi, raw)
		got := cfg.Get(id, pi)
		if !p.Valid(got) || got != p.Quantize(raw) {
			return false
		}
		if otherID != id && cfg.Get(otherID, pi) != before {
			return false // cross-carrier interference
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: pair-wise relations are directed and independent per
// parameter.
func TestConfigPairProperty(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 16)
	pair := schema.PairWise()

	f := func(a, b uint8, paramSel uint8, raw float64) bool {
		from := CarrierID(int(a) % 16)
		to := CarrierID(int(b) % 16)
		if from == to {
			return true
		}
		pi := pair[int(paramSel)%len(pair)]
		p := schema.At(pi)
		if raw != raw || raw > 1e12 || raw < -1e12 {
			return true
		}
		// The reverse relation's value (if any) must be untouched.
		revBefore, revSet := cfg.GetPair(to, from, pi)
		cfg.SetPair(from, to, pi, raw)
		got, ok := cfg.GetPair(from, to, pi)
		if !ok || got != p.Quantize(raw) || !p.Valid(got) {
			return false
		}
		revAfter, revSetAfter := cfg.GetPair(to, from, pi)
		return revSet == revSetAfter && (!revSet || revBefore == revAfter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Grow preserves all existing values and adds rows at the
// parameter minimum.
func TestConfigGrowProperty(t *testing.T) {
	schema := paramspec.Default()
	singular := schema.Singular()
	f := func(vals [6]float64, growBy uint8) bool {
		cfg := NewConfig(schema, 3)
		pi := singular[2]
		for i, v := range vals[:3] {
			if v != v {
				return true
			}
			cfg.Set(CarrierID(i), pi, v)
		}
		before := []float64{cfg.Get(0, pi), cfg.Get(1, pi), cfg.Get(2, pi)}
		n := int(growBy)%5 + 1
		cfg.Grow(n)
		if cfg.NumCarriers() != 3+n {
			return false
		}
		for i, b := range before {
			if cfg.Get(CarrierID(i), pi) != b {
				return false
			}
		}
		for i := 3; i < 3+n; i++ {
			if cfg.Get(CarrierID(i), pi) != schema.At(pi).Min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// configView captures every value a Config serves: each carrier's singular
// values, each configured relation's pair-wise values, and Edges.
type configView struct {
	singular [][]float64
	edges    []EdgeKey
	pairs    [][]float64
}

func viewOf(c *Config) configView {
	s := c.Schema()
	v := configView{edges: c.Edges()}
	for id := 0; id < c.NumCarriers(); id++ {
		row := make([]float64, 0, len(s.Singular()))
		for _, pi := range s.Singular() {
			row = append(row, c.Get(CarrierID(id), pi))
		}
		v.singular = append(v.singular, row)
	}
	for _, e := range v.edges {
		row := make([]float64, 0, len(s.PairWise()))
		for _, pi := range s.PairWise() {
			x, ok := c.GetPair(e.From, e.To, pi)
			if !ok {
				panic("Edges lists an unconfigured relation")
			}
			row = append(row, x)
		}
		v.pairs = append(v.pairs, row)
	}
	return v
}

// writeRandom applies n random Set, SetPair and Grow calls to c.
func writeRandom(c *Config, r *rand.Rand, n int) {
	s := c.Schema()
	for i := 0; i < n; i++ {
		id := CarrierID(r.IntN(c.NumCarriers()))
		switch r.IntN(5) {
		case 0, 1:
			pi := s.Singular()[r.IntN(len(s.Singular()))]
			c.Set(id, pi, s.At(pi).Min+r.Float64()*(s.At(pi).Max-s.At(pi).Min))
		case 2, 3:
			pi := s.PairWise()[r.IntN(len(s.PairWise()))]
			to := CarrierID(r.IntN(c.NumCarriers()))
			c.SetPair(id, to, pi, s.At(pi).Min+r.Float64()*(s.At(pi).Max-s.At(pi).Min))
		default:
			c.Grow(r.IntN(3))
		}
	}
}

// Property: after Clone, writes on either side never show on the other:
// random Set, SetPair and Grow calls on the clone leave every Get, GetPair
// and Edges of the parent unchanged, and the parent's own later writes
// leave the clone unchanged. Chains of clones hold the same way.
func TestConfigCloneCopyOnWriteProperty(t *testing.T) {
	schema := paramspec.Default()
	for seed := uint64(0); seed < 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 1))
		parent := NewConfig(schema, 1+r.IntN(12))
		writeRandom(parent, r, r.IntN(40))
		before := viewOf(parent)
		clone := parent.Clone()
		if !reflect.DeepEqual(viewOf(clone), before) {
			t.Fatalf("seed %d: clone differs from its parent", seed)
		}
		writeRandom(clone, r, 1+r.IntN(60))
		if !reflect.DeepEqual(viewOf(parent), before) {
			t.Fatalf("seed %d: writes on the clone changed the parent", seed)
		}
		cloneView := viewOf(clone)
		grand := clone.Clone()
		writeRandom(parent, r, 1+r.IntN(60))
		writeRandom(grand, r, 1+r.IntN(60))
		if !reflect.DeepEqual(viewOf(clone), cloneView) {
			t.Fatalf("seed %d: writes on the parent or a grandchild changed the clone", seed)
		}
		if parent.NumEdges() != len(parent.Edges()) || clone.NumEdges() != len(clone.Edges()) {
			t.Fatalf("seed %d: NumEdges disagrees with Edges", seed)
		}
	}
}

// TestConfigCloneConcurrentReaders writes a clone while goroutines read its
// parent, under the race detector in `make race`: the parent's rows are
// shared until the clone writes them, and a write must copy a row rather
// than touch the shared one.
func TestConfigCloneConcurrentReaders(t *testing.T) {
	schema := paramspec.Default()
	r := rand.New(rand.NewPCG(7, 7))
	parent := NewConfig(schema, 16)
	writeRandom(parent, r, 200)
	want := viewOf(parent)
	clone := parent.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !reflect.DeepEqual(viewOf(parent), want) {
					t.Error("parent changed under a concurrent clone write")
					return
				}
			}
		}()
	}
	writeRandom(clone, r, 2000)
	wg.Wait()
}

// TestConfigCloneCopiesNoRows pins that Clone costs a fixed number of
// allocations however many carriers and relations the config holds: it
// copies row headers, never rows.
func TestConfigCloneCopiesNoRows(t *testing.T) {
	schema := paramspec.Default()
	pi := schema.PairWise()[0]
	cfg := NewConfig(schema, 2000)
	for id := 0; id < 2000; id++ {
		cfg.SetPair(CarrierID(id), CarrierID((id+1)%2000), pi, 1)
	}
	if n := testing.AllocsPerRun(10, func() { cfg.Clone() }); n > 4 {
		t.Errorf("Clone of 2000 carriers made %v allocations, want at most 4", n)
	}
}
