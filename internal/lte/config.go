package lte

import (
	"fmt"
	"slices"

	"auric/internal/paramspec"
)

// EdgeKey identifies a directed carrier→neighbor X2 relation.
type EdgeKey struct {
	From, To CarrierID
}

// Config holds a full configuration snapshot for a network: one value per
// (carrier, singular parameter) and one per (carrier, neighbor, pair-wise
// parameter). Values are always on the parameter's grid.
//
// A Config is copy-on-write at carrier granularity: each carrier's values
// (its singular row and the pair rows of its outgoing relations) live in
// one row, Clone copies only the row headers, and the first write to a row
// after a Clone copies that row alone. Clone hands both the clone and the
// original a fresh owner, so writes on either side stay invisible to the
// other.
type Config struct {
	schema *paramspec.Schema
	// kindPos maps schema parameter index -> position within its kind's
	// value rows.
	kindPos     []int
	numSingular int
	numPairWise int
	rows        []configRow // [carrier]
	edges       int         // configured directed relations
	// owner marks the rows this Config may write in place; a row whose
	// owner differs is shared with a clone and is copied before a write.
	owner *rowOwner
}

// rowOwner is the identity of the Config a row was last copied for. It has
// a field so that distinct owners never share an address.
type rowOwner struct{ _ byte }

// configRow is one carrier's values: the singular values in schema order,
// and the pair rows of its configured outgoing relations, ascending by
// neighbor (pair holds numPairWise values per entry of to).
type configRow struct {
	owner    *rowOwner
	singular []float64
	to       []CarrierID
	pair     []float64
}

// NewConfig allocates a configuration snapshot for numCarriers carriers
// under the given schema. All values start at each parameter's Min.
func NewConfig(schema *paramspec.Schema, numCarriers int) *Config {
	c := &Config{
		schema:  schema,
		kindPos: make([]int, schema.Len()),
		owner:   new(rowOwner),
	}
	for i := 0; i < schema.Len(); i++ {
		if schema.At(i).Kind == paramspec.Singular {
			c.kindPos[i] = c.numSingular
			c.numSingular++
		} else {
			c.kindPos[i] = c.numPairWise
			c.numPairWise++
		}
	}
	c.rows = make([]configRow, 0, numCarriers)
	c.Grow(numCarriers)
	return c
}

// Schema returns the parameter schema the config is laid out against.
func (c *Config) Schema() *paramspec.Schema { return c.schema }

// Grow extends the configuration to cover n additional carriers, whose
// singular values start at each parameter's Min. It is used when new
// carriers are integrated into a live network (the launch workflow).
func (c *Config) Grow(n int) {
	backing := make([]float64, n*c.numSingular)
	c.fillMin(backing, paramspec.Singular)
	for i := 0; i < n; i++ {
		lo, hi := i*c.numSingular, (i+1)*c.numSingular
		c.rows = append(c.rows, configRow{owner: c.owner, singular: backing[lo:hi:hi]})
	}
}

// fillMin sets every value of vals, a run of kind rows, to its parameter's
// Min.
func (c *Config) fillMin(vals []float64, k paramspec.Kind) {
	width := c.numSingular
	if k == paramspec.PairWise {
		width = c.numPairWise
	}
	for i := 0; i < c.schema.Len(); i++ {
		if p := c.schema.At(i); p.Kind == k {
			for j := c.kindPos[i]; j < len(vals); j += width {
				vals[j] = p.Min
			}
		}
	}
}

// NumCarriers reports the number of carriers the config covers.
func (c *Config) NumCarriers() int { return len(c.rows) }

// Get returns the value of singular parameter param (schema index) on the
// carrier.
func (c *Config) Get(id CarrierID, param int) float64 {
	c.mustKind(param, paramspec.Singular)
	return c.rows[id].singular[c.kindPos[param]]
}

// Set stores the value of singular parameter param on the carrier,
// quantizing it to the parameter grid.
func (c *Config) Set(id CarrierID, param int, v float64) {
	c.mustKind(param, paramspec.Singular)
	c.own(id).singular[c.kindPos[param]] = c.schema.At(param).Quantize(v)
}

// GetPair returns the value of pair-wise parameter param on the directed
// carrier→neighbor relation, and whether the relation has been configured.
func (c *Config) GetPair(from, to CarrierID, param int) (float64, bool) {
	c.mustKind(param, paramspec.PairWise)
	r := &c.rows[from]
	k, ok := slices.BinarySearch(r.to, to)
	if !ok {
		return 0, false
	}
	return r.pair[k*c.numPairWise+c.kindPos[param]], true
}

// SetPair stores the value of pair-wise parameter param on the directed
// carrier→neighbor relation, creating the relation row on first use. New
// rows start with every pair-wise parameter at its Min.
func (c *Config) SetPair(from, to CarrierID, param int, v float64) {
	c.mustKind(param, paramspec.PairWise)
	r := c.own(from)
	k, ok := slices.BinarySearch(r.to, to)
	if !ok {
		r.to = slices.Insert(r.to, k, to)
		fresh := make([]float64, c.numPairWise)
		c.fillMin(fresh, paramspec.PairWise)
		r.pair = slices.Insert(r.pair, k*c.numPairWise, fresh...)
		c.edges++
	}
	r.pair[k*c.numPairWise+c.kindPos[param]] = c.schema.At(param).Quantize(v)
}

// own returns the carrier's row ready for an in-place write, copying it
// first when it is shared with a clone.
func (c *Config) own(id CarrierID) *configRow {
	r := &c.rows[id]
	if r.owner != c.owner {
		*r = configRow{
			owner:    c.owner,
			singular: slices.Clone(r.singular),
			to:       slices.Clone(r.to),
			pair:     slices.Clone(r.pair),
		}
	}
	return r
}

// Edges returns all configured directed relations, ordered by (From, To).
func (c *Config) Edges() []EdgeKey {
	out := make([]EdgeKey, 0, c.edges)
	for i := range c.rows {
		for _, to := range c.rows[i].to {
			out = append(out, EdgeKey{From: CarrierID(i), To: to})
		}
	}
	return out
}

// NumEdges reports the number of configured directed relations.
func (c *Config) NumEdges() int { return c.edges }

// Clone returns a copy of the configuration that shares every row with c
// until one side writes it. It copies only the row headers. Clone gives c
// a new owner too, so it counts as a write on c: it must not run
// concurrently with other writes or clones of c, while reads of c may.
func (c *Config) Clone() *Config {
	out := *c
	out.rows = slices.Clone(c.rows)
	out.owner = new(rowOwner)
	c.owner = new(rowOwner)
	return &out
}

// CarrierValues returns the singular parameter values of one carrier as a
// map from parameter name to value, for reports and the EMS controller.
func (c *Config) CarrierValues(id CarrierID) map[string]float64 {
	out := make(map[string]float64, c.numSingular)
	for i := 0; i < c.schema.Len(); i++ {
		if c.schema.At(i).Kind == paramspec.Singular {
			out[c.schema.At(i).Name] = c.rows[id].singular[c.kindPos[i]]
		}
	}
	return out
}

func (c *Config) mustKind(param int, k paramspec.Kind) {
	if param < 0 || param >= c.schema.Len() {
		panic(fmt.Sprintf("lte: parameter index %d out of range", param))
	}
	if c.schema.At(param).Kind != k {
		panic(fmt.Sprintf("lte: parameter %s is %v, accessed as %v",
			c.schema.At(param).Name, c.schema.At(param).Kind, k))
	}
}
