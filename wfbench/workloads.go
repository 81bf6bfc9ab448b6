package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/instance"
	"repliflow/internal/server"
	"repliflow/internal/store"
)

// workload is one traffic mix. Every workload is a closed loop: each of
// its clients sends the next request only after the previous reply.
type workload struct {
	name    string
	why     string
	clients int
	// limit is the latency limit a request must meet to count toward
	// goodput.
	limit time.Duration
	// setup constructs and warms a server for the workload. tr is nil
	// on untraced runs.
	setup func(env *env, tr *tracer) (*harness, error)
	// client drives one client until the deadline.
	client func(env *env, h *harness, c *client)
}

// env is what a workload's inputs derive from.
type env struct {
	seed    int64
	workdir string
	tr      *tracer // the tracer of the phase being driven, or nil
	pool    *pool   // hot-cache only
	nextReq atomic.Uint64
}

// op is one request kept for checking, with what the checker needs to
// verify it after the timed phase.
type op struct {
	class string // solve, batch, classify, pareto, job, reread
	req   uint64
	dur   time.Duration
	first time.Duration // pareto: time to the first front line
	// timed ops count toward throughput and latency; re-reads of old
	// jobs only toward attempted and failed.
	timed bool
	// ins are the instances the op asked about (one, or a batch) and
	// body the request body of solve and pareto ops; on hot-cache they
	// alias the pool.
	ins      []instance.Instance
	body     []byte
	err      error // failed or refused
	budgetMs int64 // solve: the request's anytime budget
	// budgetAllocs counts the process's heap allocations while a
	// budgeted request was in flight (np-hard's single client only).
	budgetAllocs uint64
	job          string // job: its id
	jkind        string // job: its kind
	resp         []byte // the response, until spilled
	saved        spilled
	// check verifies the response.
	check func(o *oracle, resp []byte) error
}

// response returns the op's response bytes.
func (o *op) response() ([]byte, error) {
	if o.resp != nil {
		return o.resp, nil
	}
	return o.saved.read()
}

// repeat is a hot-cache request whose answer was byte-identical, up to
// the per-request elapsedMs, to one already kept for checking: that
// check covers it. Only what the metrics and the probe replay need is
// recorded, in 16 bytes, so the benchmark's own records stay small
// beside the server's heap.
type repeat struct {
	req  uint32
	pool int32   // pool index of a solve; -1 for a classify
	of   int32   // index of the kept op it repeats, in its phase's ops
	ms   float32 // latency in milliseconds
}

// client is one closed-loop client.
type client struct {
	id       int
	g        *gen
	deadline time.Time
	ops      []op
	repeats  []repeat
	spill    *spill
	// seen holds, per repeated request key, the answer already kept for
	// checking and that op's index (see dedupe).
	seen map[int]kept
}

type kept struct {
	body []byte
	op   int
}

// keep records o, moving its response to the client's spill file so the
// responses kept for checking do not sit on the heap being measured.
func (c *client) keep(o op) {
	if o.resp != nil {
		var err error
		if o.saved, err = c.spill.write(o.resp); err != nil {
			o.err = err
		} else {
			o.resp = nil
		}
	}
	c.ops = append(c.ops, o)
}

// dedupe records o as a repeat when it repeats request key and its
// answer is byte-identical, up to the per-request elapsedMs, to one
// already kept; otherwise it keeps o. poolIdx is o's pool instance, or
// -1 when o is not a solve.
func (c *client) dedupe(key, poolIdx int, o op) {
	if o.err == nil {
		body := o.resp
		if i := bytes.LastIndex(body, []byte(`"elapsedMs"`)); i >= 0 {
			body = body[:i]
		}
		if k, ok := c.seen[key]; ok && bytes.Equal(k.body, body) {
			c.repeats = append(c.repeats, repeat{req: uint32(o.req), pool: int32(poolIdx), of: int32(k.op), ms: float32(ms(o.dur))})
			return
		}
		if c.seen == nil {
			c.seen = make(map[int]kept)
		}
		c.seen[key] = kept{body: append([]byte(nil), body...), op: len(c.ops)}
	}
	c.keep(o)
}

// timedCall runs fn as one operation, inside an "http" span on traced
// phases, and returns the op with its duration.
func (e *env) timedCall(h *harness, class string, fn func(o *op, span int) error) op {
	o := op{class: class, req: e.nextReq.Add(1), timed: true}
	span := 0
	if e.tr != nil {
		span = e.tr.open("http", o.req, 0)
	}
	start := time.Now()
	o.err = fn(&o, span)
	o.dur = time.Since(start)
	if e.tr != nil {
		e.tr.close(span)
	}
	return o
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("wfbench: encoding a generated request: %v", err))
	}
	return b
}

// checkSolve verifies a /v1/solve response for ins.
func checkSolve(o *oracle, ins instance.Instance, resp []byte) error {
	var sr server.SolveResponse
	if err := instance.DecodeStrict(bytes.NewReader(resp), &sr); err != nil {
		return fmt.Errorf("decoding solve response: %w", err)
	}
	return checkSolution(o, ins, sr.Solution)
}

// checkSolution verifies one solution, against the oracle when exact.
func checkSolution(o *oracle, ins instance.Instance, sj instance.SolutionJSON) error {
	pr, err := checkAnswer(ins, sj)
	if err != nil {
		return err
	}
	if sj.Exact && !sj.Anytime {
		return o.checkExact(pr, sj)
	}
	return nil
}

// checkBatch verifies a batch response for ins, index by index.
func checkBatch(o *oracle, ins []instance.Instance, sols []instance.SolutionJSON) error {
	if len(sols) != len(ins) {
		return fmt.Errorf("%d solutions for %d instances", len(sols), len(ins))
	}
	for i := range ins {
		if err := checkSolution(o, ins[i], sols[i]); err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return nil
}

// ---- hot-cache ----

// pool is the hot-cache instance pool and its pre-encoded requests.
type pool struct {
	ins      []instance.Instance
	bodies   [][]byte
	classify []string // the /v1/classify query of each instance's cell
	cells    []core.CellKey
}

const poolSize = 3000

func newPool(seed int64) (*pool, error) {
	g := newGen(seed, 0)
	p := &pool{}
	for i := 0; i < poolSize; i++ {
		ins := g.small(kindNames[i%len(kindNames)])
		pr, err := ins.Problem()
		if err != nil {
			return nil, fmt.Errorf("pool instance %d: %w", i, err)
		}
		key := core.CellKeyOf(pr)
		q := url.Values{}
		q.Set("kind", kindOf(ins))
		q.Set("platform", homName(key.PlatformHomogeneous))
		q.Set("graph", homName(key.GraphHomogeneous))
		q.Set("dp", strconv.FormatBool(key.DataParallel))
		q.Set("objective", ins.Objective)
		p.ins = append(p.ins, ins)
		p.bodies = append(p.bodies, mustJSON(server.SolveRequest{Instance: ins}))
		p.classify = append(p.classify, "/v1/classify?"+q.Encode())
		p.cells = append(p.cells, key)
	}
	return p, nil
}

func homName(hom bool) string {
	if hom {
		return "hom"
	}
	return "het"
}

var hotCache = &workload{
	name:    "hot-cache",
	why:     "Zipf-skewed repeats of a small-instance pool: the engine cache answers almost every request, so per-request overhead dominates and the solvers idle",
	clients: 2,
	limit:   20 * time.Millisecond,
	setup: func(e *env, tr *tracer) (*harness, error) {
		if e.pool == nil {
			p, err := newPool(e.seed)
			if err != nil {
				return nil, err
			}
			e.pool = p
		}
		h, err := startHarness(server.Config{}, 2, wrapFor(tr))
		if err != nil {
			return nil, err
		}
		// Warm-up: solve the whole pool through the batch endpoint.
		for lo := 0; lo < poolSize; lo += 100 {
			body := mustJSON(server.BatchRequest{Instances: e.pool.ins[lo : lo+100]})
			if _, err := h.do(http.MethodPost, "/v1/solve/batch", body, 0, http.StatusOK); err != nil {
				h.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return h, nil
	},
	client: func(e *env, h *harness, c *client) {
		zipf := rand.NewZipf(c.g.rng, 1.1, 1, poolSize-1)
		for time.Now().Before(c.deadline) {
			r := c.g.rng.Float64()
			switch {
			case r < 0.04:
				ins := c.g.fresh()
				c.keep(solveOp(e, h, []instance.Instance{ins}, mustJSON(server.SolveRequest{Instance: ins})))
			case r < 0.90:
				i := int(zipf.Uint64())
				c.dedupe(i, i, solveOp(e, h, e.pool.ins[i:i+1], e.pool.bodies[i]))
			case r < 0.96:
				idx := make([]int32, 8)
				for k := range idx {
					idx[k] = int32(zipf.Uint64())
				}
				c.keep(batchOp(e, h, idx))
			default:
				i := int(zipf.Uint64())
				c.dedupe(poolSize+i, -1, classifyOp(e, h, i))
			}
		}
	},
}

func wrapFor(tr *tracer) func(http.Handler) http.Handler {
	if tr == nil {
		return nil
	}
	return tr.wrapHandler
}

// solveOp posts one /v1/solve request for ins[0].
func solveOp(e *env, h *harness, ins []instance.Instance, body []byte) op {
	o := e.timedCall(h, "solve", func(o *op, span int) (err error) {
		o.resp, err = h.do(http.MethodPost, "/v1/solve", body, span, http.StatusOK)
		return err
	})
	o.ins, o.body = ins, body
	o.check = func(or *oracle, resp []byte) error { return checkSolve(or, ins[0], resp) }
	return o
}

// batchOp posts one /v1/solve/batch request for the pool instances idx.
// The op keeps the indices, not copies of the instances.
func batchOp(e *env, h *harness, idx []int32) op {
	ins := func() []instance.Instance {
		out := make([]instance.Instance, len(idx))
		for k, i := range idx {
			out[k] = e.pool.ins[i]
		}
		return out
	}
	body := mustJSON(server.BatchRequest{Instances: ins()})
	o := e.timedCall(h, "batch", func(o *op, span int) (err error) {
		o.resp, err = h.do(http.MethodPost, "/v1/solve/batch", body, span, http.StatusOK)
		return err
	})
	o.check = func(or *oracle, resp []byte) error {
		var br server.BatchResponse
		if err := instance.DecodeStrict(bytes.NewReader(resp), &br); err != nil {
			return fmt.Errorf("decoding batch response: %w", err)
		}
		return checkBatch(or, ins(), br.Solutions)
	}
	return o
}

// classifyOp asks /v1/classify about pool instance i's cell and checks
// the answer against core.ClassifyCell.
func classifyOp(e *env, h *harness, i int) op {
	o := e.timedCall(h, "classify", func(o *op, span int) (err error) {
		o.resp, err = h.do(http.MethodGet, e.pool.classify[i], nil, span, http.StatusOK)
		return err
	})
	key := e.pool.cells[i]
	o.check = func(_ *oracle, resp []byte) error {
		var info server.CellInfo
		if err := instance.DecodeStrict(bytes.NewReader(resp), &info); err != nil {
			return fmt.Errorf("decoding classify response: %w", err)
		}
		want := instance.ComplexityName(core.ClassifyCell(key).Complexity)
		if info.Cell != key.String() || info.Complexity != want {
			return fmt.Errorf("classify says %s %s, want %s %s", info.Cell, info.Complexity, key, want)
		}
		return nil
	}
	return o
}

// ---- np-hard ----

// anytimeBudgetMs is the fixed budget oversized np-hard requests carry.
const anytimeBudgetMs = 40

var npHard = &workload{
	name:    "np-hard",
	why:     "fresh NP-hard instances of all six kinds plus budgeted oversized ones: the cache always misses and exhaustive or anytime search dominates",
	clients: 1,
	limit:   time.Second,
	setup: func(e *env, tr *tracer) (*harness, error) {
		h, err := startHarness(server.Config{}, 1, wrapFor(tr))
		if err != nil {
			return nil, err
		}
		// Warm-up: one instance of every kind and one budgeted one, the
		// same for every seed so set-up time does not vary with it.
		g := newGen(0, 99)
		reqs := make([]server.SolveRequest, 0, len(kindNames)+1)
		for k := range kindNames {
			reqs = append(reqs, server.SolveRequest{Instance: g.hard(k), Parallelism: -1})
		}
		reqs = append(reqs, server.SolveRequest{Instance: g.oversized(), BudgetMs: anytimeBudgetMs, Parallelism: -1})
		for _, r := range reqs {
			if _, err := h.do(http.MethodPost, "/v1/solve", mustJSON(r), 0, http.StatusOK); err != nil {
				h.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return h, nil
	},
	client: func(e *env, h *harness, c *client) {
		for i, k := 0, 0; time.Now().Before(c.deadline); i++ {
			req := server.SolveRequest{Parallelism: -1}
			if i%5 == 4 {
				req.Instance, req.BudgetMs = c.g.oversized(), anytimeBudgetMs
			} else {
				req.Instance = c.g.hard(k)
				k++
			}
			body := mustJSON(req)
			a0 := mallocs()
			o := solveOp(e, h, []instance.Instance{req.Instance}, body)
			o.budgetMs = req.BudgetMs
			if o.budgetMs > 0 {
				o.budgetAllocs = mallocs() - a0
			}
			c.keep(o)
		}
	},
}

// ---- sweep-store ----

// jobPoll is how often the job client polls a running job.
const jobPoll = 5 * time.Millisecond

var sweepStore = &workload{
	name:    "sweep-store",
	why:     "streamed Pareto sweeps beside async pareto and batch jobs on a disk-backed store: prepared-solver sweeps and store writes and reads, not one-shot solves",
	clients: 2,
	limit:   2 * time.Second,
	setup: func(e *env, tr *tracer) (*harness, error) {
		if err := os.MkdirAll(e.workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(e.workdir, "store-")
		if err != nil {
			return nil, err
		}
		disk, err := store.OpenDisk(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		var st store.Store = disk
		if tr != nil {
			st = &timedStore{Store: disk, tr: tr}
		}
		h, err := startHarness(server.Config{Store: st, MaxJobs: 8}, 2, wrapFor(tr))
		if err != nil {
			disk.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		h.disk, h.dir = disk, dir
		// Warm-up: four streamed sweeps and a pareto and a batch job,
		// the same for every seed.
		g := newGen(0, 99)
		for i := 0; i < 4; i++ {
			if _, err := h.do(http.MethodPost, "/v1/pareto", mustJSON(server.SolveRequest{Instance: g.sweepable()}), 0, http.StatusOK); err != nil {
				h.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		ins := g.sweepable()
		batch := []instance.Instance{g.small("pipeline"), g.small("fork"), g.small("sp"), g.small("comm-fork")}
		for _, req := range []server.JobRequest{{Kind: "pareto", Instance: &ins}, {Kind: "batch", Instances: batch}} {
			if _, _, err := runJob(h, req, 0); err != nil {
				h.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return h, nil
	},
	client: func(e *env, h *harness, c *client) {
		if c.id == 0 {
			for time.Now().Before(c.deadline) {
				c.keep(paretoOp(e, h, c.g.sweepable()))
			}
			return
		}
		var done []op
		for n := 0; time.Now().Before(c.deadline); n++ {
			var req server.JobRequest
			if n%2 == 0 {
				ins := c.g.sweepable()
				req = server.JobRequest{Kind: "pareto", Instance: &ins}
			} else {
				req = server.JobRequest{Kind: "batch"}
				for k := 0; k < 8; k++ {
					req.Instances = append(req.Instances, c.g.small(kindNames[c.g.rng.Intn(len(kindNames))]))
				}
			}
			o := jobOp(e, h, req)
			if o.err == nil {
				done = append(done, o)
			}
			c.keep(o)
			// Re-read a job old enough to have left the server's
			// in-memory job table, so the store serves it.
			if len(done) > 10 {
				c.keep(rereadOp(e, h, done[len(done)-10]))
			}
		}
	},
}

// paretoOp streams one /v1/pareto sweep, timing the first front line
// and the whole stream.
func paretoOp(e *env, h *harness, ins instance.Instance) op {
	body := mustJSON(server.SolveRequest{Instance: ins})
	var first time.Duration
	o := e.timedCall(h, "pareto", func(o *op, span int) error {
		start := time.Now()
		resp, err := h.send(http.MethodPost, "/v1/pareto", body, span)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/pareto: status %d", resp.StatusCode)
		}
		rd := bufio.NewReader(resp.Body)
		var buf bytes.Buffer
		for {
			line, err := rd.ReadBytes('\n')
			if first == 0 && len(line) > 0 {
				first = time.Since(start)
			}
			buf.Write(line)
			if err != nil {
				break
			}
		}
		o.resp = buf.Bytes()
		return nil
	})
	o.first, o.ins, o.body = first, []instance.Instance{ins}, body
	o.check = func(or *oracle, resp []byte) error {
		front, err := decodeStream(resp)
		if err != nil {
			return err
		}
		return or.checkFront(ins, front)
	}
	return o
}

// decodeStream splits a /v1/pareto NDJSON stream into its front points,
// requiring a final "complete" status line.
func decodeStream(b []byte) ([]instance.SolutionJSON, error) {
	var front []instance.SolutionJSON
	status := ""
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var st struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(line, &st); err != nil {
			return nil, fmt.Errorf("stream line %q: %w", line, err)
		}
		if st.Status != "" {
			status = st.Status
			continue
		}
		var sj instance.SolutionJSON
		if err := instance.DecodeStrict(bytes.NewReader(line), &sj); err != nil {
			return nil, fmt.Errorf("stream point: %w", err)
		}
		front = append(front, sj)
	}
	if status != server.StreamStatusComplete {
		return nil, fmt.Errorf("stream ended with status %q", status)
	}
	return front, nil
}

// runJob submits a job and polls it until it is terminal, returning the
// final job document and its raw body.
func runJob(h *harness, req server.JobRequest, span int) (server.JobResponse, []byte, error) {
	b, err := h.do(http.MethodPost, "/v1/jobs", mustJSON(req), span, http.StatusAccepted)
	if err != nil {
		return server.JobResponse{}, nil, err
	}
	var jr server.JobResponse
	if err := json.Unmarshal(b, &jr); err != nil {
		return jr, nil, fmt.Errorf("decoding job: %w", err)
	}
	for {
		switch jr.Status {
		case server.JobStatusDone:
			return jr, b, nil
		case server.JobStatusFailed, server.JobStatusCanceled:
			return jr, b, fmt.Errorf("job %s ended %s", jr.ID, jr.Status)
		}
		time.Sleep(jobPoll)
		if b, err = h.do(http.MethodGet, "/v1/jobs/"+jr.ID, nil, span, http.StatusOK); err != nil {
			return jr, nil, err
		}
		jr = server.JobResponse{}
		if err := json.Unmarshal(b, &jr); err != nil {
			return jr, nil, fmt.Errorf("decoding job: %w", err)
		}
	}
}

// jobOp runs one async job from submission until it is terminal.
func jobOp(e *env, h *harness, req server.JobRequest) op {
	var id string
	o := e.timedCall(h, "job", func(o *op, span int) error {
		jr, b, err := runJob(h, req, span)
		id, o.resp = jr.ID, b
		return err
	})
	if req.Instance != nil {
		o.ins = []instance.Instance{*req.Instance}
	} else {
		o.ins = req.Instances
	}
	o.job, o.jkind = id, req.Kind
	ins := o.ins
	o.check = func(or *oracle, resp []byte) error { return checkJob(or, req.Kind, ins, resp) }
	return o
}

// checkJob verifies a terminal job document.
func checkJob(o *oracle, kind string, ins []instance.Instance, resp []byte) error {
	var jr server.JobResponse
	if err := instance.DecodeStrict(bytes.NewReader(resp), &jr); err != nil {
		return fmt.Errorf("decoding job: %w", err)
	}
	if jr.Status != server.JobStatusDone {
		return fmt.Errorf("job %s is %s", jr.ID, jr.Status)
	}
	if kind == "pareto" {
		return o.checkFront(ins[0], jr.Front)
	}
	return checkBatch(o, ins, jr.Solutions)
}

// rereadOp reads a finished job again; the answer must still verify.
func rereadOp(e *env, h *harness, old op) op {
	id, ins, kind := old.job, old.ins, old.jkind
	o := e.timedCall(h, "reread", func(o *op, span int) (err error) {
		o.resp, err = h.do(http.MethodGet, "/v1/jobs/"+id, nil, span, http.StatusOK)
		return err
	})
	o.timed, o.ins = false, ins
	o.check = func(or *oracle, resp []byte) error {
		if err := checkJob(or, kind, ins, resp); err != nil {
			return fmt.Errorf("re-read of a job already seen done: %w", err)
		}
		return nil
	}
	return o
}

// workloads lists every workload by name.
var workloads = []*workload{hotCache, npHard, sweepStore}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
