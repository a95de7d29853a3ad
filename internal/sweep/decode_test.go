package sweep_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"copack/internal/service"
	"copack/internal/sweep"
)

// The service is the one decoder of the sweep wire formats: POST /sweeps
// takes a Request, POST /sweeps/shard one Unit. These tests hold both
// bodies to its strict rules from this side of a shard hop.

// bodyServer serves a fresh service under the given body cap (zero takes
// the default) and returns a poster of raw bodies that answers each
// response's status and body.
func bodyServer(t *testing.T, maxBody int64) func(path, body string) (int, []byte) {
	t.Helper()
	svc := service.New(service.Config{Workers: 1, MaxBodyBytes: maxBody})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("POST %s: reading body: %v", path, err)
		}
		return resp.StatusCode, data
	}
}

// errorMsg is the message of the service's {"error": msg} body, empty
// when data is not one.
func errorMsg(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	json.Unmarshal(data, &e)
	return e.Error
}

// TestDecodeRequestStrict: a sweep request body is decoded strictly —
// an unknown field, a second JSON value and an empty body are 400s naming
// the fault — and a valid body is accepted with its units counted.
func TestDecodeRequestStrict(t *testing.T) {
	post := bodyServer(t, 0)
	for _, tc := range []struct{ name, body, want string }{
		{"unknown field", `{"kind":"table2","num_seeds":2,"typo":1}`, "unknown field"},
		{"trailing JSON", `{"kind":"table2"}{"kind":"table3"}`, "more than one JSON object"},
		{"empty body", ``, "empty request body"},
	} {
		if status, data := post("/sweeps", tc.body); status != http.StatusBadRequest || !strings.Contains(errorMsg(data), tc.want) {
			t.Errorf("%s: got %d %s, want a 400 naming %q", tc.name, status, data, tc.want)
		}
	}
	status, data := post("/sweeps", `{"kind":"table2","num_seeds":2}`)
	var sub struct {
		Units int `json:"units"`
	}
	if status != http.StatusAccepted || json.Unmarshal(data, &sub) != nil || sub.Units != 2 {
		t.Errorf("valid sweep body: got %d %s, want a 202 for 2 units", status, data)
	}
}

// TestDecodeShardStrict: a shard body, one Unit, goes through the same
// strict decoder as a sweep request — unknown fields, a second JSON value
// and trailing garbage are 400s, an empty body says so — and a body over
// the cap is a 413 on both routes.
func TestDecodeShardStrict(t *testing.T) {
	wire, err := json.Marshal(sweep.Unit{Kind: sweep.KindTable3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	valid := string(wire)
	post := bodyServer(t, 0)
	for _, tc := range []struct{ name, body, want string }{
		{"unknown field", `{"kind":"table3","seed":1,"x":1}`, "unknown field"},
		{"trailing object", valid + `{"seed":9}`, "more than one JSON object"},
		{"trailing garbage", valid + ` garbage`, "more than one JSON object"},
		{"empty body", ``, "empty request body"},
	} {
		if status, data := post("/sweeps/shard", tc.body); status != http.StatusBadRequest || !strings.Contains(errorMsg(data), tc.want) {
			t.Errorf("%s: got %d %s, want a 400 naming %q", tc.name, status, data, tc.want)
		}
	}
	status, data := post("/sweeps/shard", valid+"\n")
	var sr sweep.ShardResponse
	if status != http.StatusOK || json.Unmarshal(data, &sr) != nil || len(sr.Result) == 0 {
		t.Errorf("valid shard body: got %d %s, want a 200 with the unit's result", status, data)
	}

	capped := bodyServer(t, 16)
	for _, path := range []string{"/sweeps/shard", "/sweeps"} {
		if status, data := capped(path, valid); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got %d %s, want a 413", path, status, data)
		}
	}
}
