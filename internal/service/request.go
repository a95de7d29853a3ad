package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"copack"
	"copack/internal/design"
)

// PlanRequest is the JSON body of POST /plan and POST /jobs.
type PlanRequest struct {
	// Design is the problem instance in the design text format
	// (see internal/design): circuit, package spec, quadrant ball maps.
	Design string `json:"design"`
	// Options tunes the plan. Every field is optional.
	Options RequestOptions `json:"options"`
}

// RequestOptions is the wire form of the planner knobs the service
// exposes. Unknown fields are rejected, so clients discover typos instead
// of silently running defaults.
type RequestOptions struct {
	// Algorithm is dfa (default), ifa, random or mcmf; case-insensitive.
	Algorithm string `json:"algorithm,omitempty"`
	// DFACut is the paper's cut-line parameter n (default 1).
	DFACut int `json:"dfa_cut,omitempty"`
	// SkipExchange stops after the congestion-driven step.
	SkipExchange bool `json:"skip_exchange,omitempty"`
	// Seed drives every random choice (default 0: the library default).
	Seed int64 `json:"seed,omitempty"`
	// Restarts runs this many independently seeded anneals and keeps the
	// best (default 1; capped at maxRestarts). Above 1 on a stacking
	// design (ψ ≥ 2) every restart starts warm (see
	// copack.ExchangeOptions.Restarts).
	Restarts int `json:"restarts,omitempty"`
	// BudgetMS bounds the planning wall clock in milliseconds; on expiry
	// the response carries the best-so-far plan with "partial": true.
	// Capped by the server's Config.MaxBudget, which is also the budget of
	// a request that sets none. A cut plan never returns an order the
	// exchange cost scores above the congestion-driven one, with any
	// restart count (see copack.Result.Partial). A partial result
	// depends on timing, so it is never cached and carries no
	// byte-identity guarantee; a run that finishes inside its budget is
	// cached as usual.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Metrics asks for the run's obs telemetry snapshot in the response.
	// Snapshot durations are wall-clock measurements, so a metrics=true
	// body is only byte-stable when it is served from the cache.
	Metrics bool `json:"metrics,omitempty"`
}

// maxRestarts caps the per-request anneal fan-out, so one request cannot
// monopolize the box. The server's MaxBudget bounds each anneal's length.
const maxRestarts = 64

// httpError carries the status a request-layer failure maps to.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// normOptions is RequestOptions after defaulting and validation — the
// form that feeds both copack.Options and the cache key. Fields that
// cannot change the result (worker counts) are deliberately absent.
type normOptions struct {
	alg      copack.Algorithm
	cut      int
	skip     bool
	seed     int64
	restarts int
	budget   time.Duration
	metrics  bool
}

// planSpec is a fully validated, canonicalized plan request: the parsed
// problem, its canonical design text, the normalized options and the
// content-address derived from both.
type planSpec struct {
	problem   *copack.Problem
	canonical string
	opts      normOptions
	key       string
}

// ReadBody buffers a request body under the server's MaxBodyBytes cap, in
// one allocation sized from Content-Length when the client sent one. An
// oversized body fails with a 413 *httpError before anything decodes it;
// any other read failure is a 400. Plan, sweep and shard bodies all come
// through here and then through decodeJSON, and the fleet router reads
// plan bodies through it too, so a fleet node has one body cap and one
// set of body errors.
func (s *Server) ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	limit := s.cfg.MaxBodyBytes
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		// MinRead of slack lets ReadFrom see EOF without growing.
		buf.Grow(int(min(n, limit)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, classifyDecodeError(err)
	}
	return buf.Bytes(), nil
}

// decodeJSON is the one strict decoder of request bodies: it decodes
// exactly one JSON value from body into v, rejecting unknown fields and
// anything after the value. Failures are 400 *httpError values.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return classifyDecodeError(err)
	}
	// Trailing garbage after the JSON value is malformed input too.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return httpErrf(http.StatusBadRequest, "request body holds more than one JSON object")
	}
	return nil
}

// decodePlanRequest decodes and checks a PlanRequest body.
func decodePlanRequest(body []byte) (*PlanRequest, error) {
	var req PlanRequest
	if err := decodeJSON(body, &req); err != nil {
		if strings.Contains(err.Error(), `unknown field "portfolio"`) {
			// The adaptive portfolio was retired: its budget is restarts
			// now, and multi-restart runs pick their start from the tier
			// count.
			return nil, httpErrf(http.StatusBadRequest,
				"options.portfolio was removed: send restarts instead (a multi-restart run at ψ ≥ 2 starts warm)")
		}
		return nil, err
	}
	if req.Design == "" {
		return nil, httpErrf(http.StatusBadRequest, "missing required field \"design\"")
	}
	return &req, nil
}

// classifyDecodeError maps a body read or json.Decoder failure to an
// httpError: 413 for a body over the cap, 400 for everything else.
func classifyDecodeError(err error) error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return httpErrf(http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", maxErr.Limit)
	}
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		return httpErrf(http.StatusBadRequest, "malformed JSON at offset %d: %v", syn.Offset, syn)
	case errors.As(err, &typ):
		return httpErrf(http.StatusBadRequest, "wrong JSON type for field %q", typ.Field)
	case errors.Is(err, io.EOF):
		return httpErrf(http.StatusBadRequest, "empty request body")
	case errors.Is(err, io.ErrUnexpectedEOF):
		return httpErrf(http.StatusBadRequest, "truncated JSON body")
	default:
		// Unknown-field errors and other decoder complaints about the
		// input shape are client errors; genuine transport failures
		// (the connection died mid-body) are not, but the decoder does
		// not distinguish them — err on the side of 400, which is also
		// what a broken client sees most usefully.
		return httpErrf(http.StatusBadRequest, "decoding request: %v", err)
	}
}

// normalize validates the wire options and applies defaults, producing
// the canonical normOptions that feed the planner and the cache key.
func (o RequestOptions) normalize(maxBudget time.Duration) (normOptions, error) {
	var n normOptions
	alg := o.Algorithm
	if alg == "" {
		alg = "dfa"
	}
	parsed, err := copack.ParseAlgorithm(alg)
	if err != nil {
		return n, httpErrf(http.StatusBadRequest, "%v", err)
	}
	n.alg = parsed
	switch {
	case o.DFACut < 0:
		return n, httpErrf(http.StatusBadRequest, "dfa_cut must be >= 0, got %d", o.DFACut)
	case o.DFACut == 0:
		n.cut = 1 // the assign package's default, made explicit for the key
	default:
		n.cut = o.DFACut
	}
	n.skip = o.SkipExchange
	n.seed = o.Seed
	switch {
	case o.Restarts < 0:
		return n, httpErrf(http.StatusBadRequest, "restarts must be >= 0, got %d", o.Restarts)
	case o.Restarts > maxRestarts:
		return n, httpErrf(http.StatusBadRequest, "restarts %d exceeds the cap of %d", o.Restarts, maxRestarts)
	case o.Restarts == 0:
		n.restarts = 1 // 0 and 1 both mean a single anneal
	default:
		n.restarts = o.Restarts
	}
	if n.skip {
		// Restarts are meaningless without the exchange step; normalize
		// so "skip + restarts 8" and plain "skip" share a cache entry.
		n.restarts = 1
	}
	if o.BudgetMS < 0 {
		return n, httpErrf(http.StatusBadRequest, "budget_ms must be >= 0, got %d", o.BudgetMS)
	}
	n.budget = time.Duration(o.BudgetMS) * time.Millisecond
	if n.budget > maxBudget {
		return n, httpErrf(http.StatusBadRequest,
			"budget_ms %d exceeds the server cap of %dms", o.BudgetMS, maxBudget.Milliseconds())
	}
	n.metrics = o.Metrics
	return n, nil
}

// canonicalize parses the design text, normalizes the options and derives
// the content address. Two requests that differ only in comments,
// whitespace, directive formatting or defaulted-vs-explicit option values
// canonicalize to the same key.
func (s *Server) canonicalize(req *PlanRequest) (*planSpec, error) {
	if int64(len(req.Design)) > s.cfg.MaxBodyBytes {
		return nil, httpErrf(http.StatusRequestEntityTooLarge,
			"design text %d bytes exceeds the %d byte cap", len(req.Design), s.cfg.MaxBodyBytes)
	}
	opts, err := req.Options.normalize(s.cfg.MaxBudget)
	if err != nil {
		return nil, err
	}
	p, err := copack.ParseDesign(req.Design)
	if err != nil {
		return nil, classifyDesignError(err)
	}
	if p.Circuit.CountByClass()[copack.Power] == 0 {
		// PlanContext refuses it too (copack.ErrNoPowerNet); checking here
		// answers 400 before the request is queued.
		return nil, httpErrf(http.StatusBadRequest, "invalid design: %v", copack.ErrNoPowerNet)
	}
	canonical := copack.FormatDesign(p)
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", cacheKeyVersion, opts.optionsKey())
	io.WriteString(h, canonical)
	return &planSpec{
		problem:   p,
		canonical: canonical,
		opts:      opts,
		key:       hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// SpecKey returns the content address of a raw PlanRequest body — the
// exact key the result cache uses — through the key memo (see resolveKey).
// The fleet router calls this to decide which node owns a request without
// running the plan; failures are the same typed *httpError values the
// HTTP handlers map.
func (s *Server) SpecKey(body []byte) (string, error) {
	key, _, err := s.resolveKey(body)
	return key, err
}

// resolveKey maps a raw PlanRequest body to its cache key. A body whose
// exact bytes canonicalized before answers from the key memo with one
// sha256 and no decode, parse or format, and spec is nil. Any other body
// takes the full path: decode, canonicalize, memoize the key, and return
// the spec too. Only successes enter the memo, so a rejected body is
// re-validated, and rejected the same way, every time it arrives.
func (s *Server) resolveKey(body []byte) (key string, spec *planSpec, err error) {
	digest := sha256.Sum256(body)
	if key, ok := s.memo.Get(digest); ok {
		return key, nil, nil
	}
	if spec, err = s.parseSpec(body); err != nil {
		return "", nil, err
	}
	s.memo.Put(digest, spec.key)
	return spec.key, spec, nil
}

// parseSpec decodes and canonicalizes a raw PlanRequest body.
func (s *Server) parseSpec(body []byte) (*planSpec, error) {
	req, err := decodePlanRequest(body)
	if err != nil {
		return nil, err
	}
	return s.canonicalize(req)
}

// classifyDesignError maps a design read failure onto HTTP semantics:
// invalid design text is a 400, a transport failure under the reader is a
// 502, and an internal panic (copack.PanicError) is a 500.
func classifyDesignError(err error) error {
	var ioErr *design.IOError
	if errors.As(err, &ioErr) {
		return httpErrf(http.StatusBadGateway, "reading design: %v", ioErr.Err)
	}
	var pe *copack.PanicError
	if errors.As(err, &pe) {
		return httpErrf(http.StatusInternalServerError, "internal fault parsing design (stage %s)", pe.Stage)
	}
	return httpErrf(http.StatusBadRequest, "invalid design: %v", err)
}
