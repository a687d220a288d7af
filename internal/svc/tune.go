package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ccache"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/programs"
	"repro/internal/tune"
)

// TuneRequest is the JSON body of /tune: the program selection and
// distribution fields of Request plus the search configuration of
// cmd/zpltune.
type TuneRequest struct {
	// Exactly one of Source and Bench selects the program.
	Source string `json:"source,omitempty"`
	Bench  string `json:"bench,omitempty"`

	Level    string           `json:"level,omitempty"` // comparison heuristic; default "c2+f4"
	Configs  map[string]int64 `json:"configs,omitempty"`
	Procs    int              `json:"procs,omitempty"`
	Strategy string           `json:"strategy,omitempty"` // favor-fusion | favor-comm

	Machine string `json:"machine,omitempty"` // t3e | sp2 | paragon | origin; default t3e
	Model   string `json:"model,omitempty"`   // cycle | cache; default cycle

	// Search bounds (0 = tune.SearchOptions defaults).
	Beam               int `json:"beam,omitempty"`
	ExhaustiveVertices int `json:"exhaustive_vertices,omitempty"`
	MaxStates          int `json:"max_states,omitempty"`

	// Measure runs the top-K candidates on the VM and picks the winner
	// by wall clock (sequential programs only).
	Measure bool `json:"measure,omitempty"`
	TopK    int  `json:"topk,omitempty"`

	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TuneResponse is the JSON reply of /tune. Result is the serialized
// tune.Result — spec, scores per ladder rung, per-block search stats,
// and (in measured mode) wall-clock times.
type TuneResponse struct {
	Key    string          `json:"key"`            // content address (hex SHA-256)
	Cached bool            `json:"cached"`         // served from the tuned-plan cache
	Dedup  bool            `json:"dedup"`          // joined an in-flight identical search
	Tier   string          `json:"tier,omitempty"` // serving tier (mem|disk|peer)
	Result json.RawMessage `json:"result"`
}

// resolveTune validates the request and builds the tuning options plus
// the keying inputs: the driver options carrying the cache-relevant
// compilation fields and the extra fingerprint for the search knobs
// the options struct does not carry.
func (s *Server) resolveTune(req *TuneRequest) (src string, topt tune.Options, dopt driver.Options, extra string, err error) {
	if err := checkProcs(req.Procs); err != nil {
		return "", topt, dopt, "", err
	}
	switch {
	case req.Source != "" && req.Bench != "":
		return "", topt, dopt, "", fmt.Errorf("pass source or bench, not both")
	case req.Bench != "":
		b, ok := programs.ByName(req.Bench)
		if !ok {
			return "", topt, dopt, "", fmt.Errorf("unknown benchmark %q", req.Bench)
		}
		src = b.Source
	case req.Source != "":
		src = req.Source
	default:
		return "", topt, dopt, "", fmt.Errorf("pass source or bench")
	}

	levelName := req.Level
	if levelName == "" {
		levelName = "c2+f4"
	}
	lvl, err := core.ParseLevel(levelName)
	if err != nil {
		return "", topt, dopt, "", err
	}

	var commOpt *comm.Options
	if req.Procs > 1 {
		co := comm.DefaultOptions(req.Procs)
		switch req.Strategy {
		case "", "favor-fusion":
		case "favor-comm":
			co.Strategy = comm.FavorComm
		default:
			return "", topt, dopt, "", fmt.Errorf("unknown strategy %q (want favor-fusion or favor-comm)", req.Strategy)
		}
		commOpt = &co
	} else if req.Strategy != "" && req.Strategy != "favor-fusion" {
		return "", topt, dopt, "", fmt.Errorf("strategy %q requires procs > 1", req.Strategy)
	}
	if req.Measure && req.Procs > 1 {
		return "", topt, dopt, "", fmt.Errorf("measure requires a sequential program (procs <= 1)")
	}

	machName := req.Machine
	if machName == "" {
		machName = "t3e"
	}
	mach, ok := machine.ByName(machName)
	if !ok {
		return "", topt, dopt, "", fmt.Errorf("unknown machine %q (want t3e, sp2, paragon, or origin)", req.Machine)
	}
	procs := 1
	if req.Procs > 1 {
		procs = req.Procs
	}
	modelName := req.Model
	if modelName == "" {
		modelName = "cycle"
	}
	var model tune.CostModel
	switch modelName {
	case "cycle":
		model = tune.CycleModel{M: mach, Procs: procs}
	case "cache":
		model = tune.CacheModel{M: mach, Procs: procs}
	default:
		return "", topt, dopt, "", fmt.Errorf("unknown cost model %q (want cycle or cache)", req.Model)
	}

	topt = tune.Options{
		Level:   lvl,
		Model:   model,
		Configs: req.Configs,
		Comm:    commOpt,
		Search: tune.SearchOptions{
			Beam:               req.Beam,
			ExhaustiveVertices: req.ExhaustiveVertices,
			MaxStates:          req.MaxStates,
		},
		Measure: req.Measure,
		TopK:    req.TopK,
	}
	dopt = driver.Options{Level: lvl, Configs: req.Configs, Comm: commOpt}
	extra = fmt.Sprintf("tune:machine=%s,model=%s,beam=%d,exh=%d,states=%d,measure=%t,topk=%d",
		machName, modelName, req.Beam, req.ExhaustiveVertices, req.MaxStates, req.Measure, req.TopK)
	return src, topt, dopt, extra, nil
}

// handleTune serves POST /tune: search for a better fusion/contraction
// plan than the requested heuristic, caching the serialized result by
// the content address of (source, compile options, search knobs).
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/tune"
	t0 := time.Now()
	status, kind, outcome := http.StatusOK, "", ""
	defer func() {
		d := time.Since(t0)
		s.metrics.Request(endpoint, status, d)
		s.logRequest(r, endpoint, status, kind, outcome, d)
	}()

	if s.draining.Load() {
		s.metrics.Drained()
		status, kind = http.StatusServiceUnavailable, "draining"
		s.fail(w, status, kind, "server is draining")
		return
	}
	if r.Method != http.MethodPost {
		status, kind = http.StatusMethodNotAllowed, "bad_request"
		s.fail(w, status, kind, "POST a JSON request body")
		return
	}

	var req TuneRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status, kind = http.StatusRequestEntityTooLarge, "too_large"
			s.fail(w, status, kind, fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		status, kind = http.StatusBadRequest, "bad_request"
		s.fail(w, status, kind, "bad request JSON: "+err.Error())
		return
	}
	s.metrics.TuneRequest()

	src, topt, dopt, extra, err := s.resolveTune(&req)
	if err != nil {
		status, kind = http.StatusBadRequest, "bad_request"
		s.fail(w, status, kind, err.Error())
		return
	}

	// Admission, deadline, and worker slot: identical to /compile and
	// /run — a tuning search is the most expensive request the server
	// takes, so it must not bypass the pool.
	select {
	case s.queue <- struct{}{}:
	default:
		s.metrics.Rejected()
		status, kind = http.StatusTooManyRequests, "overloaded"
		s.fail(w, status, kind, fmt.Sprintf("queue full (%d waiting)", cap(s.queue)))
		return
	}
	defer func() { <-s.queue }()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		status, kind = statusForCtx(ctx.Err())
		s.fail(w, status, kind, "deadline expired while queued")
		return
	}
	defer func() { <-s.sem }()
	s.metrics.IncInflight()
	defer s.metrics.DecInflight()

	key := ccache.KeyOfExtra(src, dopt, extra)
	entry, res, err := s.tcache.GetOrCompute(ctx, key, func() (*ccache.Entry, error) {
		start := time.Now()
		res, terr := tune.Tune(ctx, src, topt)
		s.metrics.Phases.Observe("tune", time.Since(start))
		if terr != nil {
			return nil, terr
		}
		buf, merr := json.Marshal(res)
		if merr != nil {
			return nil, merr
		}
		// The kind routes cluster puts into the tune cache rather than
		// the compilation cache (see Server.New's RegisterLocal calls).
		return &ccache.Entry{Kind: ccache.ArtifactTune, Source: src, Aux: buf}, nil
	})
	lookup := res.Outcome
	if err != nil {
		var ce *tune.CompileError
		switch {
		case ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			status, kind = statusForCtx(err)
			s.fail(w, status, kind, "tune aborted: "+err.Error())
		case errors.As(err, &ce):
			status, kind = http.StatusUnprocessableEntity, "compile_error"
			s.fail(w, status, kind, err.Error())
		default:
			status, kind = http.StatusInternalServerError, "runtime_error"
			s.fail(w, status, kind, err.Error())
		}
		return
	}
	outcome = lookup.String()

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(TuneResponse{
		Key:    entry.Key.String(),
		Cached: lookup == ccache.Hit,
		Dedup:  lookup == ccache.Dedup,
		Tier:   res.Tier,
		Result: json.RawMessage(entry.Aux),
	})
}
