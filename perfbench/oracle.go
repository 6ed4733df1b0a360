package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"auric/internal/core"
	"auric/internal/lte"
	"auric/internal/paramspec"
)

// recDTO and recResponse mirror auricd's POST /v1/recommend response.
type recDTO struct {
	Param           string  `json:"param"`
	Neighbor        int     `json:"neighbor"`
	Value           float64 `json:"value"`
	Confidence      float64 `json:"confidence"`
	Supported       bool    `json:"supported"`
	Explanation     string  `json:"explanation"`
	RelaxationLevel int     `json:"relaxationLevel"`
	Candidates      int     `json:"candidates"`
}

type recResponse struct {
	Carrier         int      `json:"carrier"`
	TraceID         string   `json:"traceId"`
	Recommendations []recDTO `json:"recommendations"`
}

// dtos renders engine recommendations the way auricd puts them on the wire.
func dtos(recs []core.Recommendation) []recDTO {
	out := make([]recDTO, len(recs))
	for i, r := range recs {
		out[i] = recDTO{
			Param: r.Param, Neighbor: int(r.Neighbor), Value: r.Value,
			Confidence: r.Confidence, Supported: r.Supported, Explanation: r.Explanation,
			RelaxationLevel: r.RelaxationLevel, Candidates: r.Candidates,
		}
	}
	return out
}

// oracle checks every response the benchmark receives. Mismatches are
// correctness failures, counted apart from transport or status errors.
type oracle struct {
	schema *paramspec.Schema
	index  map[string]int
	nSing  int
	nPair  int

	mu         sync.Mutex
	mismatches []string
}

func newOracle(schema *paramspec.Schema) *oracle {
	o := &oracle{schema: schema, index: make(map[string]int, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		o.index[schema.At(i).Name] = i
	}
	o.nSing, o.nPair = len(schema.Singular()), len(schema.PairWise())
	return o
}

func (o *oracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	} else if len(o.mismatches) == 20 {
		o.mismatches = append(o.mismatches, "...")
	}
}

func (o *oracle) ok() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.mismatches) == 0
}

// parseRecommend decodes a recommend response body.
func parseRecommend(body []byte) (*recResponse, error) {
	var r recResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// shape checks one response against the schema: one entry per singular
// parameter, one per pair-wise parameter and neighbour (and none when the
// request was singular), every value inside its parameter's range. It
// returns the neighbours the response covers.
func (o *oracle) shape(id int, pairwise bool, r *recResponse) ([]int, error) {
	if r.Carrier != id {
		return nil, fmt.Errorf("carrier %d: response names carrier %d", id, r.Carrier)
	}
	sing := 0
	perNb := map[int]int{}
	var nbs []int
	seen := make(map[[2]int]bool, len(r.Recommendations))
	for _, rec := range r.Recommendations {
		pi, known := o.index[rec.Param]
		if !known {
			return nil, fmt.Errorf("carrier %d: unknown parameter %q", id, rec.Param)
		}
		p := o.schema.At(pi)
		if math.IsNaN(rec.Value) || rec.Value < p.Min || rec.Value > p.Max {
			return nil, fmt.Errorf("carrier %d: %s=%v outside [%v, %v]", id, p.Name, rec.Value, p.Min, p.Max)
		}
		k := [2]int{rec.Neighbor, pi}
		if seen[k] {
			return nil, fmt.Errorf("carrier %d: %s repeated for neighbour %d", id, p.Name, rec.Neighbor)
		}
		seen[k] = true
		switch {
		case p.Kind == paramspec.Singular && rec.Neighbor == -1:
			sing++
		case p.Kind == paramspec.PairWise && rec.Neighbor >= 0 && pairwise:
			if perNb[rec.Neighbor] == 0 {
				nbs = append(nbs, rec.Neighbor)
			}
			perNb[rec.Neighbor]++
		default:
			return nil, fmt.Errorf("carrier %d: %s with neighbour %d", id, p.Name, rec.Neighbor)
		}
	}
	if sing != o.nSing {
		return nil, fmt.Errorf("carrier %d: %d singular entries, want %d", id, sing, o.nSing)
	}
	for nb, n := range perNb {
		if n != o.nPair {
			return nil, fmt.Errorf("carrier %d: %d pair-wise entries toward %d, want %d", id, n, nb, o.nPair)
		}
	}
	return nbs, nil
}

// sameNeighbors reports whether a response covered exactly the expected
// neighbour set.
func sameNeighbors(got []int, want []lte.CarrierID) bool {
	if len(got) != len(want) {
		return false
	}
	set := make(map[int]bool, len(want))
	for _, w := range want {
		set[int(w)] = true
	}
	for _, g := range got {
		if !set[g] {
			return false
		}
	}
	return true
}

// equalRecs compares a served response with the reference engine's answer
// field by field.
func equalRecs(got []recDTO, want []recDTO) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d: served %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// stripTraceID returns body without the value of its "traceId" field —
// the one per-request field of a recommend response — so two answers for
// the same key compare byte for byte.
func stripTraceID(dst, body []byte) []byte {
	const key = `"traceId": "`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return append(dst, body...)
	}
	j := bytes.IndexByte(body[i+len(key):], '"')
	if j < 0 {
		return append(dst, body...)
	}
	dst = append(dst, body[:i+len(key)]...)
	return append(dst, body[i+len(key)+j:]...)
}

// ackUpsert and ackDelete are auricd's ingest acknowledgements.
type ackUpsert struct {
	Generation int64 `json:"generation"`
	Results    []struct {
		ID    int    `json:"id"`
		Error string `json:"error"`
	} `json:"results"`
}

type ackDelete struct {
	Generation int64 `json:"generation"`
	Tombstoned int   `json:"tombstoned"`
}

// ackChecker enforces that every ingest ack carries a fresh id and a
// rising generation.
type ackChecker struct {
	lastGen int64
	lastID  int
}

// check validates one successful ack and returns the carrier id it names.
func (a *ackChecker) check(m mutation, body []byte) (int, error) {
	if m.upsert {
		var ack ackUpsert
		if err := json.Unmarshal(body, &ack); err != nil {
			return 0, fmt.Errorf("upsert ack: %v", err)
		}
		if len(ack.Results) != 1 || ack.Results[0].Error != "" {
			return 0, fmt.Errorf("upsert ack: results %+v", ack.Results)
		}
		id := ack.Results[0].ID
		if id <= a.lastID {
			return 0, fmt.Errorf("upsert ack: id %d is not fresh (last %d)", id, a.lastID)
		}
		if ack.Generation <= a.lastGen {
			return 0, fmt.Errorf("upsert ack: generation %d did not rise (last %d)", ack.Generation, a.lastGen)
		}
		a.lastID, a.lastGen = id, ack.Generation
		return id, nil
	}
	var ack ackDelete
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, fmt.Errorf("delete ack: %v", err)
	}
	if ack.Tombstoned != m.target {
		return 0, fmt.Errorf("delete ack: tombstoned %d, asked %d", ack.Tombstoned, m.target)
	}
	if ack.Generation <= a.lastGen {
		return 0, fmt.Errorf("delete ack: generation %d did not rise (last %d)", ack.Generation, a.lastGen)
	}
	a.lastGen = ack.Generation
	return m.target, nil
}
