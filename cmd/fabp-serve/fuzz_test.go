package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fabp"
)

// FuzzServeRequest fuzzes the pipeline's decode step on all four routes —
// JSON bodies, plus /align/stream's query parameters. Decoding must never
// panic; every rejection must be a 4xx with a JSON error body; and every
// accepted decode must give a ScanRequest that Scan either accepts or
// rejects as the client's fault (ErrBadQuery/ErrBadOption). The scan hook
// checks that under an already-canceled context, so no scan runs. Run with
//
//	go test -run '^$' -fuzz FuzzServeRequest ./cmd/fabp-serve/
func FuzzServeRequest(f *testing.F) {
	ref, genes := fabp.SyntheticReference(7, 4_000, 1, 20)
	db, err := fabp.DatabaseFromReference("fuzz", ref)
	if err != nil {
		f.Fatal(err)
	}
	protein := genes[0].Protein
	f.Add(uint8(0), `{"query":"`+protein+`","threshold_frac":0.9,"retry_budget":2}`, "")
	f.Add(uint8(0), `{"query":"MKWV","threshold":3,"threshold_frac":0.5}`, "")
	f.Add(uint8(0), `{"query":"MKWV","kernel":"scalar","partial":true,"timeout_ms":-4}`, "")
	f.Add(uint8(1), `{"queries":["MKWV","`+protein+`"],"threshold_frac":1.5,"max_hits":3}`, "")
	f.Add(uint8(1), `{"queries":[]}`, "")
	f.Add(uint8(2), "ACGUACGUNN", "query=MKWV&query="+protein+"&threshold_frac=0.8&max_hits=2")
	f.Add(uint8(2), "ACGU", "query=MKWV&threshold_frac=NaN&timeout_ms=9")
	f.Add(uint8(3), `{"query":"`+protein+`","two_hit":true,"min_score":0,"frames":3}`, "")
	f.Add(uint8(3), `{"query":"MK","frames":-1,"max_evalue":-2}`, "")

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, route uint8, body, rawQuery string) {
		s := newServer(serverConfig{db: db, maxInflight: 64, maxBatch: 4})
		s.lookup = func(fabp.ScanRequest) (*fabp.ScanResult, bool) { return nil, false }
		scanned := false
		s.scan = func(_ context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error) {
			scanned = true
			_, err := fabp.Scan(canceled, req)
			if err != nil && !errors.Is(err, context.Canceled) &&
				!errors.Is(err, fabp.ErrBadQuery) && !errors.Is(err, fabp.ErrBadOption) {
				t.Errorf("decoded request fails outside the taxonomy: %v", err)
			}
			// A vanished client: the pipeline writes nothing.
			return nil, context.Canceled
		}
		paths := []string{"/align", "/align/batch", "/align/stream", "/search"}
		r := httptest.NewRequest(http.MethodPost, paths[int(route)%len(paths)], strings.NewReader(body))
		r.URL.RawQuery = rawQuery
		w := httptest.NewRecorder()
		s.handler().ServeHTTP(w, r)
		if scanned {
			return
		}
		if w.Code < 400 || w.Code >= 500 {
			t.Fatalf("rejection status %d, want 4xx: %s", w.Code, w.Body)
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("rejection body is not a JSON error: %s", w.Body)
		}
	})
}
