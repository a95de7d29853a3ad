package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"copack/internal/fleet"
	"copack/internal/service"
)

// TestMalformedBodiesAnswerAlike sends each class of malformed body to
// every route that reads one, on a plain server and through a fleet
// router. Plan, sweep and shard bodies all go through the service's one
// body reader and one strict decoder, and the router reads plan bodies
// through the same reader, so each class gets one status and one message
// everywhere.
func TestMalformedBodiesAnswerAlike(t *testing.T) {
	const maxBody = 256
	plain := service.New(service.Config{Workers: 1, MaxBodyBytes: maxBody})
	node := service.New(service.Config{Workers: 1, MaxBodyBytes: maxBody, NodeID: "a"})
	rt, err := fleet.New(node, fleet.Config{Self: "a", Nodes: map[string]string{"a": ""}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		plain.Shutdown(ctx)
		node.Shutdown(ctx)
	})
	handlers := []struct {
		name string
		h    http.Handler
	}{{"plain", plain.Handler()}, {"fleet", rt.Handler()}}
	// FIELD stands for a field each route's body has, for the classes
	// that name one.
	routes := []struct{ path, field string }{
		{"/plan", "design"}, {"/jobs", "design"}, {"/sweeps", "kind"}, {"/sweeps/shard", "kind"},
	}
	classes := []struct {
		name, body string
		cut        bool // the connection drops after the body's bytes
		status     int
		msg        string
	}{
		{"empty", ``, false, 400, `empty request body`},
		{"second JSON value", `{}{}`, false, 400, `request body holds more than one JSON object`},
		{"trailing garbage", `{} garbage`, false, 400, `request body holds more than one JSON object`},
		{"unknown field", `{"bogus": 1}`, false, 400, `decoding request: json: unknown field "bogus"`},
		{"wrong field type", `{"FIELD": 1}`, false, 400, `wrong JSON type for field "FIELD"`},
		{"truncated JSON", `{"FIELD": "tab`, false, 400, `truncated JSON body`},
		{"body cut short", `{"FIELD": "tab`, true, 400, `truncated JSON body`},
		{"over MaxBodyBytes", `{"FIELD": "` + strings.Repeat("x", maxBody) + `"}`, false, 413,
			fmt.Sprintf("request body exceeds %d bytes", maxBody)},
	}
	for _, c := range classes {
		for _, route := range routes {
			body := strings.ReplaceAll(c.body, "FIELD", route.field)
			want := strings.ReplaceAll(c.msg, "FIELD", route.field)
			for _, h := range handlers {
				var r io.Reader = strings.NewReader(body)
				if c.cut {
					r = io.MultiReader(r, cutReader{})
				}
				rec := httptest.NewRecorder()
				h.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, r))
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != c.status || e.Error != want {
					t.Errorf("%s, %s %s: %d %s; want %d {\"error\":%q}",
						c.name, h.name, route.path, rec.Code, strings.TrimSpace(rec.Body.String()), c.status, want)
				}
			}
		}
	}
}

// cutReader fails the way a request body does when the client's
// connection drops before Content-Length bytes arrived.
type cutReader struct{}

func (cutReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
