package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/sitstats/sits"
)

// now times the serving path so clients can see the cache's compute saving
// without HTTP round-trip noise. Wall-clock timing columns are inherently
// nondeterministic and never part of a seed-deterministic result.
var now = time.Now //statcheck:ignore rawrand serving-latency timing column, not part of the result

// server wires one serving layer behind the HTTP API:
//
//	GET/POST /estimate  — answer one SPJ estimation request
//	GET      /stats     — cache + registry counters
//	POST     /refresh   — run one staleness sweep now
//	GET      /healthz   — liveness probe
type server struct {
	svc       *sits.Service
	threshold float64 // staleness threshold for POST /refresh
}

func newServer(svc *sits.Service, threshold float64) http.Handler {
	s := &server{svc: svc, threshold: threshold}
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", s.handleEstimate)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/refresh", s.handleRefresh)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// maxEstimateBody bounds a POST /estimate body: a request is one expression
// and a handful of predicates, so 1 MiB is far above any honest client and
// keeps a hostile one from streaming gigabytes into the decoder.
const maxEstimateBody = 1 << 20

// estimateRequest is the POST body form of an estimation request. The GET
// form carries the same fields as ?query=...&pred=T.a:lo:hi[,...].
type estimateRequest struct {
	Query string     `json:"query"`
	Preds []predBody `json:"preds,omitempty"`
}

type predBody struct {
	Table string `json:"table"`
	Attr  string `json:"attr"`
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
}

// estimateResponse mirrors sits.Estimate with provenance flattened for
// clients, plus which serving tier answered.
type estimateResponse struct {
	Cardinality float64          `json:"cardinality"`
	JoinCard    float64          `json:"join_cardinality"`
	JoinStat    string           `json:"join_stat"`
	Sources     []sourceResponse `json:"sources,omitempty"`
	// Tier is the serving tier that answered: "result-hit" (estimate cache),
	// "plan-hit" (cached plan re-probed with this request's constants), or
	// "cold" (full preparation: SIT matching plus base-statistic fallbacks,
	// which take the builder lock only to build a statistic not yet memoized).
	Tier string `json:"tier"`
	// EstimateUS is the server-side time spent answering (microseconds):
	// a cache probe for result hits, histogram probing for plan hits, the
	// full estimation for cold requests.
	EstimateUS float64 `json:"estimate_us"`
}

type sourceResponse struct {
	Pred        string  `json:"pred"`
	Stat        string  `json:"stat"`
	Tables      int     `json:"tables"`
	Selectivity float64 `json:"selectivity"`
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("query")
		preds, err := sits.ParsePredicates(r.URL.Query().Get("pred"))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		for _, p := range preds {
			req.Preds = append(req.Preds, predBody{Table: p.Table, Attr: p.Attr, Lo: p.Lo, Hi: p.Hi})
		}
	case http.MethodPost:
		if err := decodeBody(w, r, &req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, fmt.Errorf("decoding request: %w", err))
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST") // RFC 9110 §15.5.6: a 405 names the allowed methods
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing query"))
		return
	}
	expr, err := sits.ParseExpr(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q := sits.SPJQuery{Expr: expr}
	for _, p := range req.Preds {
		q.Preds = append(q.Preds, sits.Predicate{Table: p.Table, Attr: p.Attr, Lo: p.Lo, Hi: p.Hi})
	}
	t0 := now()
	est, tier, err := s.svc.Estimate(q)
	if err != nil {
		if errors.Is(err, sits.ErrOverloaded) {
			// Shed: the builder queue is full under budget pressure. 429 with
			// a Retry-After tells well-behaved clients to back off instead of
			// hammering the queue they just got rejected from.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
			return
		}
		status := http.StatusUnprocessableEntity
		if errors.Is(err, sits.ErrRepeatedColumn) {
			status = http.StatusBadRequest // malformed: one range per column
		}
		httpError(w, status, err)
		return
	}
	resp := estimateResponse{
		Cardinality: est.Cardinality,
		JoinCard:    est.JoinCard,
		JoinStat:    est.JoinStat,
		Tier:        tier.String(),
		EstimateUS:  float64(now().Sub(t0)) / float64(time.Microsecond),
	}
	for _, src := range est.Sources {
		resp.Sources = append(resp.Sources, sourceResponse{
			Pred:        src.Pred.String(),
			Stat:        src.Stat,
			Tables:      src.Tables,
			Selectivity: src.Selectivity,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeBody reads a POST /estimate body strictly: at most maxEstimateBody
// bytes, one JSON object of known fields and nothing after it. A misspelt
// field ("pred" for "preds") would otherwise be dropped, and the estimate
// answered without its predicates.
func decodeBody(w http.ResponseWriter, r *http.Request, req *estimateRequest) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEstimateBody))
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON object")
	}
	return nil
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

type refreshResponse struct {
	Rebuilt []string `json:"rebuilt"`
	Epoch   uint64   `json:"epoch"`
}

func (s *server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	rebuilt, err := s.svc.Registry().Refresh(s.threshold)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if rebuilt == nil {
		rebuilt = []string{}
	}
	writeJSON(w, http.StatusOK, refreshResponse{Rebuilt: rebuilt, Epoch: s.svc.Registry().Epoch()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// A failed liveness write means the client is gone; nothing to do.
	_, _ = w.Write([]byte("ok\n"))
}

// writeJSON sends v as a JSON response. Encoding errors past the header are
// undeliverable (the status is already on the wire), so they are dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
