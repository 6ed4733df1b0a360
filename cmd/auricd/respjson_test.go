package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"auric"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
	"auric/internal/rng"
	"auric/internal/trace"
)

// The oracle is the encoding path the appender replaced: DTO structs
// through encoding/json, indented for the buffered forms and compact for
// NDJSON lines. Every response form must match it byte for byte.

func oracleDTOs(recs []auric.Recommendation) []recommendation {
	if recs == nil {
		return nil
	}
	out := make([]recommendation, 0, len(recs))
	for _, r := range recs {
		out = append(out, recommendation{
			Param:           r.Param,
			Neighbor:        int(r.Neighbor),
			Value:           r.Value,
			Confidence:      r.Confidence,
			Supported:       r.Supported,
			Explanation:     r.Explanation,
			RelaxationLevel: r.RelaxationLevel,
			Candidates:      r.Candidates,
		})
	}
	return out
}

func oracleEntry(s batchSlot) batchEntry {
	return batchEntry{Carrier: s.carrier, Error: s.err, Recommendations: oracleDTOs(s.recs)}
}

func oracleIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func oracleRecommendResponse(carrier int, recs []auric.Recommendation, traceID string) ([]byte, error) {
	return oracleIndented(map[string]any{
		"carrier":         carrier,
		"traceId":         traceID,
		"recommendations": oracleDTOs(recs),
	})
}

func oracleBatchResponse(slots []batchSlot, traceID string) ([]byte, error) {
	entries := make([]batchEntry, len(slots))
	for i, s := range slots {
		entries[i] = oracleEntry(s)
	}
	return oracleIndented(map[string]any{
		"traceId": traceID,
		"results": entries,
	})
}

func oracleBatchLine(s batchSlot) ([]byte, error) {
	var buf bytes.Buffer
	e := oracleEntry(s)
	err := json.NewEncoder(&buf).Encode(&e)
	return buf.Bytes(), err
}

// sameEncoding fails unless the appender and the oracle agree: an error
// from both, or identical bytes from both.
func sameEncoding(t *testing.T, form string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: appender error %v, encoding/json error %v", form, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: appender output differs from encoding/json\ngot:  %q\nwant: %q", form, got, want)
	}
}

// mixedServer serves a world whose schema keeps only the pair-wise
// parameters, so a request without "pairwise" recommends nothing, and
// whose carrier 0 sits in a market outside the trained shards, so it
// resolves but fails in the engine.
func mixedServer(t *testing.T) *server {
	t.Helper()
	var pair []paramspec.Param
	for _, p := range auric.DefaultSchema().Params() {
		if p.Kind == paramspec.PairWise {
			pair = append(pair, p)
		}
	}
	schema := paramspec.NewSchema(pair)
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 2, Markets: 1, ENodeBsPerMarket: 10, Schema: schema})
	net := *w.Net
	net.Carriers = slices.Clone(w.Net.Carriers)
	net.Carriers[0].Market = len(net.Markets)
	engine := auric.NewShardedEngine(schema, auric.EngineOptions{Local: true})
	if _, err := engine.Load(&net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	return &server{schema: schema, engine: engine, newRNG: rng.New(1), streamChunk: 1}
}

// expectSlot computes one request's batch slot the way the handler does,
// through single-carrier recommends.
func expectSlot(t *testing.T, s *server, req recommendRequest) batchSlot {
	t.Helper()
	net, x2, _, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	carrier, neighbors, status, msg := s.resolveRecommend(net, x2, req)
	if status != 0 {
		return batchSlot{carrier: -1, err: msg}
	}
	slot := batchSlot{carrier: int(carrier.ID)}
	recs, err := s.engine.RecommendContext(context.Background(), carrier, neighbors)
	if err != nil {
		slot.err = err.Error()
	} else {
		slot.recs = recs
	}
	return slot
}

// postTraced sends body through the full handler stack and returns the
// response with the trace id it carries.
func postTraced(t *testing.T, h http.Handler, body string, ndjson bool) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body))
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.String())
	}
	id, _, _, ok := trace.ParseTraceParent(rec.Header().Get("traceparent"))
	if !ok {
		t.Fatalf("%s: response carries no traceparent", body)
	}
	return rec, id.String()
}

func intp(v int) *int { return &v }

// TestRecommendResponseMatchesOracle pins every POST /v1/recommend response
// form, served through the full handler stack, to the encoding/json
// encoding of the same recommendations.
func TestRecommendResponseMatchesOracle(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		s := testServer(t)
		h := newHandler(s, handlerOptions{registry: obs.New(), tracer: trace.New(trace.Options{SampleRate: 1})})
		for _, req := range []recommendRequest{
			{Carrier: intp(5)},
			{Carrier: intp(7), Pairwise: true},
		} {
			body, _ := json.Marshal(req)
			rec, traceID := postTraced(t, h, string(body), false)
			slot := expectSlot(t, s, req)
			if slot.err != "" || len(slot.recs) == 0 {
				t.Fatalf("%s: expected recommendations, got %+v", body, slot)
			}
			want, err := oracleRecommendResponse(slot.carrier, slot.recs, traceID)
			sameEncoding(t, string(body), rec.Body.Bytes(), nil, want, err)
		}
	})

	t.Run("batch", func(t *testing.T) {
		s := mixedServer(t)
		h := newHandler(s, handlerOptions{registry: obs.New(), tracer: trace.New(trace.Options{SampleRate: 1})})
		reqs := []recommendRequest{
			{Carrier: intp(5), Pairwise: true}, // pair-wise recommendations
			{Carrier: intp(999999)},            // resolution failure
			{Carrier: intp(0), Pairwise: true}, // engine failure: untrained market
			{Carrier: intp(3)},                 // zero recommendations
			{},                                 // resolution failure
			{Carrier: intp(7), Pairwise: true},
		}
		slots := make([]batchSlot, len(reqs))
		for i, req := range reqs {
			slots[i] = expectSlot(t, s, req)
		}
		if slots[0].err != "" || len(slots[0].recs) == 0 || slots[2].err == "" || slots[3].err != "" || len(slots[3].recs) != 0 {
			t.Fatalf("batch does not mix the intended outcomes: %+v", slots)
		}
		body, _ := json.Marshal(reqs)

		rec, traceID := postTraced(t, h, string(body), false)
		want, err := oracleBatchResponse(slots, traceID)
		sameEncoding(t, "buffered batch", rec.Body.Bytes(), nil, want, err)

		rec, _ = postTraced(t, h, string(body), true)
		var lines []byte
		for _, slot := range slots {
			line, err := oracleBatchLine(slot)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, line...)
		}
		sameEncoding(t, "NDJSON batch", rec.Body.Bytes(), nil, lines, nil)
	})
}

// TestRecommendResponseNonFinite pins the failure path: a value JSON cannot
// represent fails every response form, and a buffered response answers 500.
func TestRecommendResponseNonFinite(t *testing.T) {
	recs := []auric.Recommendation{{Param: "p", Neighbor: -1, Value: math.NaN()}}
	if _, err := appendRecommendResponse(nil, 1, recs, ""); err == nil {
		t.Error("single response encoded NaN")
	}
	if _, err := appendBatchResponse(nil, []batchSlot{{carrier: 1, recs: recs}}, ""); err == nil {
		t.Error("batch response encoded NaN")
	}
	if _, err := appendBatchLine(nil, &batchSlot{carrier: 1, recs: recs}); err == nil {
		t.Error("NDJSON line encoded NaN")
	}
	rec := httptest.NewRecorder()
	writeRecommendJSON(rec, func(b []byte) ([]byte, error) { return appendRecommendResponse(b, 1, recs, "") })
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encoding response") {
		t.Errorf("non-finite response: status %d body %q, want 500 encoding response", rec.Code, rec.Body.String())
	}
}

// FuzzRecommendResponse drives every response form with arbitrary strings
// and float bit patterns: the appender must match encoding/json byte for
// byte, and fail exactly when encoding/json fails.
func FuzzRecommendResponse(f *testing.F) {
	f.Add("maxTxPower", "voted 12 of 15", "", "4bf92f3577b34da6a3ce929d0e0e4736", math.Float64bits(46), math.Float64bits(0.8))
	f.Add("<a&b>", "\b\f\n\r\t\x00\x1f\x7f\"\\", "unknown carrier", "", math.Float64bits(1e-7), math.Float64bits(1e21))
	f.Add("\u2028\u2029", "\xff\xfe\xc3", "\xe2\x80", "\u00e9\U0001F600", math.Float64bits(math.Copysign(0, -1)), math.Float64bits(123456789e-20))
	f.Add("p", "e", "x", "t", math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)))
	f.Add("", "", "", "", math.Float64bits(-1e-6), math.Float64bits(math.Nextafter(1e21, 0)))
	f.Fuzz(func(t *testing.T, param, explanation, errMsg, traceID string, valueBits, confBits uint64) {
		rec := auric.Recommendation{
			Param:           param,
			Neighbor:        lte.CarrierID(int32(confBits)),
			Value:           math.Float64frombits(valueBits),
			Confidence:      math.Float64frombits(confBits),
			Supported:       valueBits&1 == 1,
			Explanation:     explanation,
			RelaxationLevel: int(int8(valueBits >> 8)),
			Candidates:      int(valueBits >> 40),
		}
		pair := rec
		pair.Neighbor, pair.Value = 3, math.Float64frombits(confBits^valueBits)
		recs := []auric.Recommendation{rec, pair}
		slots := []batchSlot{
			{carrier: 4, recs: recs},
			{carrier: -1, err: errMsg},
			{carrier: 9, recs: []auric.Recommendation{}},
			{carrier: 2, err: errMsg, recs: recs[1:]},
		}

		got, gotErr := appendRecommendResponse(nil, 4, recs, traceID)
		want, wantErr := oracleRecommendResponse(4, recs, traceID)
		sameEncoding(t, "single", got, gotErr, want, wantErr)

		got, gotErr = appendRecommendResponse(nil, 4, nil, traceID)
		want, wantErr = oracleRecommendResponse(4, nil, traceID)
		sameEncoding(t, "single, nil recommendations", got, gotErr, want, wantErr)

		got, gotErr = appendBatchResponse(nil, slots, traceID)
		want, wantErr = oracleBatchResponse(slots, traceID)
		sameEncoding(t, "batch", got, gotErr, want, wantErr)

		for i := range slots {
			got, gotErr = appendBatchLine(nil, &slots[i])
			want, wantErr = oracleBatchLine(slots[i])
			sameEncoding(t, "NDJSON line", got, gotErr, want, wantErr)
		}
	})
}

// BenchmarkRecommendResponse encodes one pair-wise response of the
// default auricd world (seed 1, 4 markets x 30 eNodeBs; the best-connected
// carrier of market 0) through encoding/json as the handler used to, and
// through the appender.
func BenchmarkRecommendResponse(b *testing.B) {
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 1, Markets: 4, ENodeBsPerMarket: 30})
	engine := auric.NewEngine(w.Schema, auric.EngineOptions{Local: true, Keep: func(id lte.CarrierID) bool {
		return w.Net.Carriers[id].Market == 0
	}})
	if err := engine.Train(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	var carrier *auric.Carrier
	for i := range w.Net.Carriers {
		c := &w.Net.Carriers[i]
		if c.Market == 0 && (carrier == nil || len(w.X2.CarrierNeighbors(c.ID)) > len(w.X2.CarrierNeighbors(carrier.ID))) {
			carrier = c
		}
	}
	recs, err := engine.Recommend(carrier, w.X2.CarrierNeighbors(carrier.ID))
	if err != nil {
		b.Fatal(err)
	}
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	want, err := oracleRecommendResponse(int(carrier.ID), recs, traceID)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%d recommendations, %d bytes", len(recs), len(want))
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(want)))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{
				"carrier":         int(carrier.ID),
				"traceId":         traceID,
				"recommendations": oracleDTOs(recs),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("appender", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(want)))
		buf := make([]byte, 0, len(want))
		for i := 0; i < b.N; i++ {
			if buf, err = appendRecommendResponse(buf[:0], int(carrier.ID), recs, traceID); err != nil {
				b.Fatal(err)
			}
		}
		if !bytes.Equal(buf, want) {
			b.Fatal("appender output differs from encoding/json")
		}
	})
}
