package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/instance"
	"repliflow/internal/store"
)

// This file is the server's write-through persistence layer: every job
// state transition is mirrored into the configured store.Store (jobs.go
// calls persistJob / persistPoint), non-terminal jobs carry leases the
// reaper goroutine renews, and on startup — or whenever a lease is
// found expired — recoverJobs adopts the orphaned work and re-runs it,
// with a pareto job's already-proven front preloaded so progress never
// moves backwards across a crash. The engine's second-level solution
// cache (engine.ResultStore) is adapted onto the same store.
//
// All store writes are best-effort: a failing store degrades wfserve to
// its in-memory behavior (counted in wfserve_store_errors_total), it
// never fails a request.

// resultStore adapts the server's store.Store to engine.ResultStore:
// solutions travel as instance.SolutionJSON documents — the same
// lossless wire form the HTTP API serves — keyed by the engine
// fingerprint.
type resultStore struct{ s *Server }

// Load implements engine.ResultStore.
func (rs resultStore) Load(key string) (core.Solution, bool) {
	raw, ok, err := rs.s.store.GetResult(key)
	if err != nil {
		rs.s.storeErrors.Add(1)
		return core.Solution{}, false
	}
	if !ok {
		rs.s.storeResultMisses.Add(1)
		return core.Solution{}, false
	}
	var sj instance.SolutionJSON
	if err := instance.DecodeStrict(bytes.NewReader(raw), &sj); err != nil {
		rs.s.storeErrors.Add(1)
		return core.Solution{}, false
	}
	sol, err := sj.Solution()
	if err != nil {
		rs.s.storeErrors.Add(1)
		return core.Solution{}, false
	}
	rs.s.storeResultHits.Add(1)
	return sol, true
}

// Store implements engine.ResultStore.
func (rs resultStore) Store(key string, sol core.Solution) {
	raw, err := json.Marshal(instance.FromSolution(sol))
	if err != nil {
		rs.s.storeErrors.Add(1)
		return
	}
	if err := rs.s.store.PutResult(key, raw); err != nil {
		rs.s.storeErrors.Add(1)
		return
	}
	rs.s.storeWrites.Add(1)
}

// jobRecord renders the job's durable form. Non-terminal records carry
// a fresh lease owned by this process; a job canceled by server drain
// (not by an explicit DELETE) is written back as queued with no lease,
// so the next process to open the store resumes it — a graceful restart
// loses no accepted work.
func (s *Server) jobRecord(j *job) store.JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := store.JobRecord{
		ID:        j.id,
		Kind:      j.kind,
		Status:    j.status,
		Client:    j.client,
		Request:   j.reqRaw,
		CreatedMs: j.started.UnixMilli(),
		Done:      j.progress.Done,
		Total:     j.progress.Total,
	}
	if j.status == JobStatusCanceled && !j.requested {
		rec.Status = JobStatusQueued
		rec.Done, rec.Total = 0, 0
	}
	terminal := rec.Status == JobStatusDone || rec.Status == JobStatusFailed || rec.Status == JobStatusCanceled
	if terminal {
		rec.FinishedMs = j.finished.UnixMilli()
		if j.err != nil {
			rec.Error, _ = json.Marshal(j.err)
		}
	} else {
		rec.Lease = &store.Lease{Owner: s.owner, ExpiresMs: time.Now().Add(s.leaseTTL).UnixMilli()}
	}
	if j.solution != nil {
		rec.Solution, _ = json.Marshal(j.solution)
	}
	if len(j.solutions) > 0 {
		rec.Solutions = make([]json.RawMessage, len(j.solutions))
		for i := range j.solutions {
			rec.Solutions[i], _ = json.Marshal(j.solutions[i])
		}
	}
	if len(j.front) > 0 {
		rec.Front = make([]json.RawMessage, len(j.front))
		for i := range j.front {
			rec.Front[i], _ = json.Marshal(j.front[i])
		}
	}
	return rec
}

// persistJob writes the job's current state through to the store. It
// serves every write of a live job's whole record — state transitions
// and the reaper's lease renewals alike — under the job's persistMu.
func (s *Server) persistJob(j *job) {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	if err := s.store.PutJob(s.jobRecord(j)); err != nil {
		s.storeErrors.Add(1)
		return
	}
	s.storeWrites.Add(1)
}

// persistPoint appends one proven front point to the job's stored
// record (cheaper than rewriting the whole record per point).
func (s *Server) persistPoint(id string, sol instance.SolutionJSON) {
	raw, err := json.Marshal(sol)
	if err != nil {
		s.storeErrors.Add(1)
		return
	}
	if err := s.store.AppendFrontPoint(id, raw); err != nil {
		s.storeErrors.Add(1)
		return
	}
	s.storeWrites.Add(1)
}

// jobResponseFromRecord renders a stored record in the wire form GET
// /v1/jobs/{id} serves, for jobs evicted from memory but persisted.
// Undecodable payload fields are dropped rather than failing the read.
func jobResponseFromRecord(rec store.JobRecord) JobResponse {
	end := time.Now()
	if rec.FinishedMs > 0 {
		end = time.UnixMilli(rec.FinishedMs)
	}
	jr := JobResponse{
		ID:        rec.ID,
		Kind:      rec.Kind,
		Status:    rec.Status,
		ElapsedMs: float64(end.Sub(time.UnixMilli(rec.CreatedMs))) / float64(time.Millisecond),
		Progress:  JobProgress{Done: rec.Done, Total: rec.Total},
	}
	if rec.Solution != nil {
		var sol instance.SolutionJSON
		if json.Unmarshal(rec.Solution, &sol) == nil {
			jr.Solution = &sol
		}
	}
	for _, raw := range rec.Solutions {
		var sol instance.SolutionJSON
		if json.Unmarshal(raw, &sol) == nil {
			jr.Solutions = append(jr.Solutions, sol)
		}
	}
	for _, raw := range rec.Front {
		var sol instance.SolutionJSON
		if json.Unmarshal(raw, &sol) == nil {
			jr.Front = append(jr.Front, sol)
		}
	}
	if len(jr.Front) > 0 {
		jr.Progress.Points = len(jr.Front)
	}
	if rec.Error != nil {
		var eb ErrorBody
		if json.Unmarshal(rec.Error, &eb) == nil {
			jr.Error = &eb
		}
	}
	return jr
}

// jobSeq extracts the numeric suffix of a "job-N" id, 0 otherwise.
func jobSeq(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil || !strings.HasPrefix(id, "job-") {
		return 0
	}
	return n
}

// recoverJobs adopts the store's orphaned work: every non-terminal
// record nobody holds a live lease on is re-queued and re-run under
// this process's ownership, with its proven front preloaded. At startup
// adoptAll is true — opening a store directory asserts exclusive
// ownership (store.DiskStore is single-writer), so even an unexpired
// lease belongs to a dead process. The reaper re-runs this with
// adoptAll false, adopting only expired leases (the shared-backend
// safe rule). The job id sequence is advanced past every stored id, so
// new submissions never collide with recovered ones.
func (s *Server) recoverJobs(adoptAll bool) {
	recs, err := s.store.ListJobs()
	if err != nil {
		s.storeErrors.Add(1)
		return
	}
	now := time.Now().UnixMilli()
	for _, rec := range recs {
		s.jobs.advanceSeq(jobSeq(rec.ID))
		if rec.Terminal() {
			continue
		}
		if !adoptAll && rec.Lease != nil && rec.Lease.ExpiresMs > now {
			continue // a live owner holds it
		}
		s.resumeJob(rec)
	}
}

// resumeJob re-runs one stored non-terminal job under this process.
// The original request is re-validated exactly as on submission; a
// record whose request no longer parses is marked failed in the store
// rather than retried forever.
func (s *Server) resumeJob(rec store.JobRecord) {
	fail := func(msg string) {
		rec.Status = JobStatusFailed
		rec.FinishedMs = time.Now().UnixMilli()
		rec.Lease = nil
		rec.Error, _ = json.Marshal(&ErrorBody{Kind: ErrKindInternal, Message: msg})
		if err := s.store.PutJob(rec); err != nil {
			s.storeErrors.Add(1)
		}
	}
	var req JobRequest
	if err := instance.DecodeStrict(bytes.NewReader(rec.Request), &req); err != nil {
		fail("recovering job: undecodable stored request: " + err.Error())
		return
	}
	problems, err := jobProblems(req, s.maxBatch)
	if err != nil {
		fail("recovering job: " + err.Error())
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j, ok := s.jobs.adopt(rec, cancel)
	if !ok {
		cancel() // already running here, or the manager is full of live jobs
		return
	}
	// Preload the proven front: the re-run sweep overwrites these points
	// in place as it re-proves them (see runJob), so the front a client
	// observes never shrinks across the crash.
	for _, raw := range rec.Front {
		var sol instance.SolutionJSON
		if err := json.Unmarshal(raw, &sol); err != nil {
			break
		}
		j.front = append(j.front, sol)
	}
	j.progress = JobProgress{Done: rec.Done, Total: rec.Total}
	if len(j.front) > 0 {
		j.progress.Points = len(j.front)
	}
	s.persistJob(j) // re-lease under this process before running
	s.storeRecovered.Add(1)
	opts := s.solveOptions(req.BudgetMs, req.Parallelism)
	go s.runJob(ctx, cancel, j, problems, opts, s.timeoutFor(req.TimeoutMs), rec.Client)
}

// reaper renews this process's leases and adopts expired ones until the
// server drains. The interval is a third of the lease TTL, so a live
// owner's leases are always renewed well before other replicas would
// consider them orphaned.
func (s *Server) reaper() {
	ticker := time.NewTicker(s.leaseTTL / 3)
	defer ticker.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-ticker.C:
			for _, j := range s.jobs.live() {
				s.persistJob(j)
			}
			s.recoverJobs(false)
		}
	}
}

// jobProblems validates a job request into its solve problems — shared
// by submission (handleJobCreate) and crash recovery (resumeJob), so a
// recovered request passes exactly the checks it passed when accepted.
func jobProblems(req JobRequest, maxBatch int) ([]core.Problem, error) {
	switch req.Kind {
	case "solve", "pareto":
		if req.Instance == nil || len(req.Instances) > 0 {
			return nil, fmt.Errorf("a %q job takes exactly the instance field", req.Kind)
		}
		ins := *req.Instance
		if req.Kind == "pareto" && ins.Objective == "" {
			ins.Objective = "min-period" // the sweep ignores it
		}
		pr, err := ins.Problem()
		if err != nil {
			return nil, err
		}
		return []core.Problem{pr}, nil
	case "batch":
		if req.Instance != nil || len(req.Instances) == 0 {
			return nil, fmt.Errorf(`a "batch" job takes a non-empty instances field`)
		}
		if len(req.Instances) > maxBatch {
			return nil, fmt.Errorf("batch of %d instances exceeds the limit of %d", len(req.Instances), maxBatch)
		}
		problems := make([]core.Problem, len(req.Instances))
		for i, ins := range req.Instances {
			pr, err := ins.Problem()
			if err != nil {
				return nil, fmt.Errorf("instances[%d]: %v", i, err)
			}
			problems[i] = pr
		}
		return problems, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q (want solve, batch or pareto)", req.Kind)
	}
}

var _ = engine.ResultStore(resultStore{})
