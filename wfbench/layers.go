package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/instance"
	"repliflow/internal/server"
	"repliflow/internal/store"
)

// tracedPhase is the traced repeat of a workload's traffic.
type tracedPhase struct {
	*phase
	tr *tracer
	// jobBytes is the encoded size of the job records the store holds
	// after the phase, fronts included.
	jobBytes int64
	jobs     int
}

// tracedRun sets up a server whose handler and store are wrapped in
// spans and drives the same seeded traffic through it.
func tracedRun(w *workload, e *env, secs int) (*tracedPhase, error) {
	tr := newTracer()
	h, err := w.setup(e, tr)
	if err != nil {
		return nil, fmt.Errorf("setting up traced %s: %w", w.name, err)
	}
	e.tr = tr
	p, err := drive(w, e, h, secs, false)
	e.tr = nil
	if err != nil {
		h.close()
		return nil, err
	}
	t := &tracedPhase{phase: p, tr: tr}
	if h.disk != nil {
		t.jobBytes, t.jobs, err = storedJobBytes(h.disk)
	}
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.removeSpills()
		return nil, err
	}
	return t, nil
}

// storedJobBytes returns the encoded size of the job records st holds,
// fronts included, and how many there are.
func storedJobBytes(st store.Store) (int64, int, error) {
	recs, err := st.ListJobs()
	if err != nil {
		return 0, 0, fmt.Errorf("listing stored jobs: %w", err)
	}
	var n int64
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return 0, 0, err
		}
		n += int64(len(b))
	}
	return n, len(recs), nil
}

// probeBudget bounds the wall time of each in-process layer probe.
const probeBudget = 3 * time.Second

// layers derives the per-layer metrics from the untraced phase u and the
// traced phase t, then drives t's inputs through the layers' public
// functions, recording the probe spans in t's tracer.
func layers(w *workload, e *env, u *phase, t *tracedPhase) (*report, error) {
	r := &report{}
	byReq := make(map[uint64]*op, len(t.ops))
	for i := range t.ops {
		byReq[t.ops[i].req] = &t.ops[i]
	}
	pp, err := probeRequests(e, t)
	if err != nil {
		return nil, err
	}
	httpServerMetrics(r, t, byReq, pp)
	scrapeMetrics(r, u)
	r.add("instance.decode_p50_us", "us", median(pp.decode), "n=%d DecodeStrict + Problem", len(pp.decode))
	r.add("instance.encode_p50_us", "us", median(pp.encode), "n=%d FromSolution + JSON", len(pp.encode))
	r.add("instance.response_bytes", "bytes", median(pp.respBytes), "median of n=%d", len(pp.respBytes))
	r.add("engine.fingerprint_p50_ns", "ns", median(pp.fingerprint), "n=%d", len(pp.fingerprint))
	r.add("engine.hit_ratio", "ratio", ratio(float64(len(pp.hit)), float64(len(pp.hit)+len(pp.miss))), "%d hits, %d misses", len(pp.hit), len(pp.miss))
	r.add("engine.hit_p50_us", "us", median(pp.hit), "n=%d", len(pp.hit))
	r.add("engine.miss_p50_ms", "ms", median(pp.miss), "n=%d", len(pp.miss))
	r.add("engine.sweep_p50_ms", "ms", median(pp.sweep), "n=%d", len(pp.sweep))
	r.add("engine.sweep_solves", "count", median(pp.sweepSolves), "median misses per sweep")
	r.add("engine.sweep_points_per_solve", "ratio", ratio(sum(pp.sweepPoints), sum(pp.sweepSolves)), "front points per solve")
	coreMetrics(r, t)
	anytimeMetrics(r, u)
	storeMetrics(r, t)
	userMetrics(r, w, u, t)
	if err := t.tr.write(filepath.Join(e.workdir, fmt.Sprintf("trace-%s-%d.json.gz", w.name, e.seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probes holds the per-request layer timings of the request probe.
type probes struct {
	decode, encode, fingerprint, hit, miss []float64
	respBytes                              []float64
	sweep, sweepSolves, sweepPoints        []float64
	// decodeOf and encodeOf are each probed request's decode and encode
	// times in microseconds, by request id.
	decodeOf, encodeOf map[uint64]float64
}

// probeRequests replays the traced phase's solve and pareto requests
// through instance decoding, the engine (a fresh one, warmed like the
// server) and solution encoding, each call inside a span.
func probeRequests(e *env, t *tracedPhase) (*probes, error) {
	pp := &probes{decodeOf: map[uint64]float64{}, encodeOf: map[uint64]float64{}}
	eng := engine.New(runtime.GOMAXPROCS(0))
	eng.SetCacheLimit(65536)
	ctx := context.Background()
	// Warm the probe engine as the server was warmed, then replay the
	// phase's requests in request order, so hits and misses follow the
	// served sequence.
	if e.pool != nil {
		problems := make([]core.Problem, len(e.pool.ins))
		for i, ins := range e.pool.ins {
			pr, err := ins.Problem()
			if err != nil {
				return nil, err
			}
			problems[i] = pr
		}
		if _, err := eng.SolveBatch(ctx, problems, core.Options{}); err != nil {
			return nil, fmt.Errorf("warming the probe engine: %w", err)
		}
	}
	type item struct {
		req   uint64
		class string
		body  []byte
		op    *op // nil for a repeat
	}
	var items []item
	for i := range t.ops {
		if o := &t.ops[i]; o.err == nil && (o.class == "solve" || o.class == "pareto") {
			items = append(items, item{o.req, o.class, o.body, o})
		}
	}
	for _, r := range t.repeats {
		if r.pool >= 0 {
			items = append(items, item{uint64(r.req), "solve", e.pool.bodies[r.pool], nil})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].req < items[j].req })
	deadline := time.Now().Add(probeBudget)
	for _, o := range items {
		if time.Now().After(deadline) {
			break
		}
		tr := t.tr
		root := tr.open("probe", o.req, 0)
		id := tr.open("instance.decode", o.req, root)
		start := time.Now()
		var req server.SolveRequest
		if err := instance.DecodeStrict(bytes.NewReader(o.body), &req); err != nil {
			return nil, fmt.Errorf("probe decode: %w", err)
		}
		if o.class == "pareto" && req.Instance.Objective == "" {
			req.Instance.Objective = "min-period"
		}
		pr, err := req.Instance.Problem()
		if err != nil {
			return nil, fmt.Errorf("probe decode: %w", err)
		}
		d := time.Since(start)
		tr.close(id)
		pp.decode = append(pp.decode, us(d))
		if o.op != nil {
			pp.decodeOf[o.req] = us(d)
		}
		opts := serverOptions(req)

		id = tr.open("engine.fingerprint", o.req, root)
		start = time.Now()
		engine.Fingerprint(pr, opts)
		pp.fingerprint = append(pp.fingerprint, float64(time.Since(start).Nanoseconds()))
		tr.close(id)

		var sols []core.Solution
		before := eng.Stats()
		if o.class == "solve" {
			id = tr.open("engine.solve", o.req, root)
			start = time.Now()
			sol, err := eng.Solve(ctx, pr, opts)
			d = time.Since(start)
			tr.close(id)
			if err != nil {
				return nil, fmt.Errorf("probe solve: %w", err)
			}
			if eng.Stats().Hits > before.Hits {
				pp.hit = append(pp.hit, us(d))
			} else {
				pp.miss = append(pp.miss, ms(d))
			}
			sols = []core.Solution{sol}
		} else {
			id = tr.open("engine.sweep", o.req, root)
			start = time.Now()
			_, err := eng.SweepFront(ctx, pr, opts, engine.SweepObserver{Point: func(p engine.SweepPoint) error {
				sols = append(sols, p.Solution)
				return nil
			}})
			d = time.Since(start)
			tr.close(id)
			if err != nil {
				return nil, fmt.Errorf("probe sweep: %w", err)
			}
			pp.sweep = append(pp.sweep, ms(d))
			pp.sweepSolves = append(pp.sweepSolves, float64(eng.Stats().Misses-before.Misses))
			pp.sweepPoints = append(pp.sweepPoints, float64(len(sols)))
		}

		id = tr.open("instance.encode", o.req, root)
		start = time.Now()
		for _, sol := range sols {
			out := instance.FromSolution(sol)
			if o.class == "solve" {
				_, err = json.MarshalIndent(server.SolveResponse{Solution: out, Cell: core.CellKeyOf(pr).String()}, "", "  ")
			} else {
				_, err = json.Marshal(out)
			}
			if err != nil {
				return nil, fmt.Errorf("probe encode: %w", err)
			}
		}
		d = time.Since(start)
		tr.close(id)
		tr.close(root)
		pp.encode = append(pp.encode, us(d))
		if o.op != nil {
			pp.encodeOf[o.req] = us(d)
			if resp, err := o.op.response(); err == nil {
				pp.respBytes = append(pp.respBytes, float64(len(resp)))
			}
		}
	}
	return pp, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// serverOptions derives a request's solve options as the server does:
// a positive budgetMs engages anytime solving, a non-zero parallelism
// overrides the (serial) default.
func serverOptions(req server.SolveRequest) core.Options {
	var opts core.Options
	if req.BudgetMs > 0 {
		opts.AnytimeBudget = time.Duration(req.BudgetMs) * time.Millisecond
	}
	opts.Parallelism = req.Parallelism
	return opts
}

// httpServerMetrics attributes the traced requests' time to the loopback
// HTTP layer (the client span's self time) and the server handler.
func httpServerMetrics(r *report, t *tracedPhase, byReq map[uint64]*op, pp *probes) {
	spans := t.tr.snapshot()
	self := selfTimes(spans)
	hasServer := make(map[int]bool)
	var handler []float64
	handlerOf := make(map[uint64]float64)
	for _, s := range spans {
		if s.Name == "server" {
			hasServer[s.Parent] = true
			handler = append(handler, float64(s.dur())/1e3)
			handlerOf[s.Req] = float64(s.dur()) / 1e3
		}
	}
	var overhead, serverSelf []float64
	for _, s := range spans {
		if s.Name == "http" && hasServer[s.ID] {
			overhead = append(overhead, float64(self[s.ID])/1e3)
		}
	}
	for req, dec := range pp.decodeOf {
		o := byReq[req]
		enc, ok := pp.encodeOf[req]
		if !ok || o.class != "solve" {
			continue
		}
		var sr struct {
			ElapsedMs float64 `json:"elapsedMs"`
		}
		if resp, err := o.response(); err != nil || json.Unmarshal(resp, &sr) != nil {
			continue
		}
		serverSelf = append(serverSelf, handlerOf[req]-sr.ElapsedMs*1e3-dec-enc)
	}
	r.add("http.overhead_p50_us", "us", median(overhead), "n=%d client RTT minus handler", len(overhead))
	r.add("server.handler_p50_us", "us", median(handler), "n=%d Server.ServeHTTP", len(handler))
	r.add("server.self_p50_us", "us", median(serverSelf), "n=%d handler minus decode, engine (elapsedMs) and encode", len(serverSelf))
}

// scrapeMetrics turns the untraced phase's /metrics deltas into the
// server counters.
func scrapeMetrics(r *report, u *phase) {
	before, after := solveSecondsByKind(u.before), solveSecondsByKind(u.after)
	for _, k := range kindNames {
		r.add("server.solve_seconds_sum."+k, "s", after[k]-before[k], "wfserve_solve_seconds_sum delta")
	}
	r.add("server.queued_max", "count", u.queuedMax, "largest wfserve_queued_requests sampled every 100ms")
	const se = "wfserve_store_errors_total"
	r.add("server.store_errors", "count", u.after[se]-u.before[se], "%s delta", se)
	r.add("gc.cycles_per_kreq", "count", float64(u.gcs)*1000/float64(max(1, countTimed(u))), "%d GC cycles", u.gcs)
}

func countTimed(p *phase) int {
	n := len(p.repeats)
	for _, o := range p.ops {
		if o.timed && o.err == nil {
			n++
		}
	}
	return n
}

// probeInstance is one distinct instance of the traced phase, decoded.
type probeInstance struct {
	kind string
	pr   core.Problem
}

// distinctProblems returns the traced phase's distinct instances in
// request order, leaving out those sent with an anytime budget (the
// anytime metrics cover them).
func distinctProblems(t *tracedPhase) []probeInstance {
	seen := map[string]bool{}
	var out []probeInstance
	for _, o := range t.ops {
		if o.err != nil || o.budgetMs > 0 {
			continue
		}
		for _, ins := range o.ins {
			if o.class == "pareto" || len(o.ins) == 1 && o.class == "job" {
				ins.Objective = "min-period"
			}
			key := string(mustJSON(ins))
			if seen[key] {
				continue
			}
			seen[key] = true
			if pr, err := ins.Problem(); err == nil {
				out = append(out, probeInstance{kind: kindOf(ins), pr: pr})
			}
		}
	}
	return out
}

// coreMetrics times serial solves per kind, prepared against fresh
// solves, and the parallel search against the serial one.
func coreMetrics(r *report, t *tracedPhase) {
	ctx := context.Background()
	insts := distinctProblems(t)
	serial := map[string][]float64{}
	methods := map[string]map[string]int{}
	type exact struct {
		pr     core.Problem
		serial float64
	}
	exhaustive := map[string][]exact{}
	deadline := time.Now().Add(probeBudget)
	for _, pi := range insts {
		if len(serial[pi.kind]) >= 12 || time.Now().After(deadline) {
			continue
		}
		id := t.tr.open("core.solve."+pi.kind, 0, 0)
		start := time.Now()
		sol, err := core.SolveContext(ctx, pi.pr, core.Options{})
		d := ms(time.Since(start))
		t.tr.close(id)
		if err != nil {
			continue
		}
		serial[pi.kind] = append(serial[pi.kind], d)
		if methods[pi.kind] == nil {
			methods[pi.kind] = map[string]int{}
		}
		methods[pi.kind][sol.Method.String()]++
		// Only searches long enough for a fan-out to pay are compared.
		if sol.Method == core.MethodExhaustive && d >= 1 && len(exhaustive[pi.kind]) < 3 {
			exhaustive[pi.kind] = append(exhaustive[pi.kind], exact{pi.pr, d})
		}
	}
	for _, k := range kindNames {
		r.add("solve."+k+"_p50_ms", "ms", median(serial[k]), "n=%d serial core.SolveContext %s", len(serial[k]), methodList(methods[k]))
	}
	workers := runtime.GOMAXPROCS(0)
	for _, k := range kindNames {
		var s, p float64
		for _, x := range exhaustive[k] {
			id := t.tr.open("core.parallel."+k, 0, 0)
			start := time.Now()
			_, err := core.SolveContext(ctx, x.pr, core.Options{Parallelism: workers})
			t.tr.close(id)
			if err == nil {
				s, p = s+x.serial, p+ms(time.Since(start))
			}
		}
		r.add("core.parallel_speedup."+k, "ratio", ratio(s, p), "serial over Parallelism=%d on %d exhaustive instances of >= 1ms", workers, len(exhaustive[k]))
	}

	var prep, prepared, fresh []float64
	deadline = time.Now().Add(probeBudget)
	for _, pi := range insts {
		if len(prep) >= 20 || time.Now().After(deadline) {
			break
		}
		id := t.tr.open("core.prepare", 0, 0)
		start := time.Now()
		ps, ok := core.Prepare(pi.pr, core.Options{})
		d := time.Since(start)
		t.tr.close(id)
		if !ok {
			continue
		}
		prep = append(prep, ms(d))
		// A sweep solves one prepared instance at many candidate
		// periods: the first solve fills the solver's lazy state, the
		// timed one asks for the least latency under a looser period,
		// and the one-shot solve of that same problem is the baseline.
		first, err := ps.Solve(ctx, core.MinPeriod, 0)
		if err != nil || !first.Feasible {
			continue
		}
		bounded := pi.pr
		bounded.Objective, bounded.Bound = core.LatencyUnderPeriod, first.Cost.Period*1.25
		id = t.tr.open("core.prepared_solve", 0, 0)
		start = time.Now()
		_, err = ps.Solve(ctx, bounded.Objective, bounded.Bound)
		d = time.Since(start)
		t.tr.close(id)
		if err != nil {
			continue
		}
		prepared = append(prepared, ms(d))
		id = t.tr.open("core.fresh_solve", 0, 0)
		start = time.Now()
		_, err = core.SolveContext(ctx, bounded, core.Options{})
		d = time.Since(start)
		t.tr.close(id)
		if err == nil {
			fresh = append(fresh, ms(d))
		}
	}
	r.add("core.prepare_p50_ms", "ms", median(prep), "n=%d", len(prep))
	r.add("core.prepared_solve_p50_ms", "ms", median(prepared), "n=%d latency-under-period solves on a warm prepared solver", len(prepared))
	r.add("core.fresh_solve_p50_ms", "ms", median(fresh), "n=%d one-shot solves of the same instances", len(fresh))
	r.add("core.prepared_over_fresh", "ratio", ratio(median(prepared), median(fresh)), "median over median")
}

func methodList(m map[string]int) string {
	var parts []string
	for k, v := range m {
		parts = append(parts, fmt.Sprintf("%s:%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// anytimeMetrics summarises the anytime answers of the untraced phase.
func anytimeMetrics(r *report, u *phase) {
	var iters, gaps []float64
	var allocs uint64
	exact := 0
	for _, o := range u.ops {
		if o.err != nil || o.class != "solve" || o.budgetMs <= 0 {
			continue
		}
		var sr server.SolveResponse
		resp, err := o.response()
		if err != nil || json.Unmarshal(resp, &sr) != nil || !sr.Solution.Anytime || sr.Solution.Gap == nil {
			continue
		}
		iters = append(iters, float64(sr.Solution.Iterations))
		allocs += o.budgetAllocs
		gaps = append(gaps, *sr.Solution.Gap)
		if sr.Solution.Exact {
			exact++
		}
	}
	r.add("anytime.iterations_mean", "count", mean(iters), "n=%d budgeted answers", len(iters))
	r.add("anytime.exact_share", "ratio", ratio(float64(exact), float64(len(iters))), "proven optimal within the budget")
	r.add("anytime.gap_mean", "ratio", mean(gaps), "certified gap, n=%d", len(gaps))
	r.add("anytime.allocs_per_iteration", "count", ratio(float64(allocs), sum(iters)), "process-wide mallocs while budgeted requests ran, per portfolio iteration")
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// storeMetrics summarises the store spans of the traced phase.
func storeMetrics(r *report, t *tracedPhase) {
	by := map[string][]float64{}
	for _, s := range t.tr.snapshot() {
		if strings.HasPrefix(s.Name, "store.") {
			by[s.Name] = append(by[s.Name], float64(s.dur())/1e3)
		}
	}
	for _, name := range []string{"store.put_job", "store.append_point", "store.put_result", "store.get_job"} {
		r.add(name+"_p50_us", "us", median(by[name]), "n=%d", len(by[name]))
	}
	r.add("store.bytes_per_job", "bytes", ratio(float64(t.jobBytes), float64(t.jobs)), "encoded job records, fronts included, over %d jobs", t.jobs)
}

// userMetrics reports the user-facing figures of the untraced phase that
// are too unsteady, or too workload-specific, to be end-to-end metrics,
// and the tracing overhead.
func userMetrics(r *report, w *workload, u *phase, t *tracedPhase) {
	var first, front, job []float64
	for _, o := range u.ops {
		if o.err != nil {
			continue
		}
		switch o.class {
		case "pareto":
			first = append(first, ms(o.first))
			front = append(front, ms(o.dur))
		case "job":
			job = append(job, ms(o.dur))
		}
	}
	lat, _ := u.completed(w.limit)
	q := tailLevel(len(lat))
	r.add("latency_tail_ms", "ms", percentile(lat, q), "p%g of n=%d untraced operations", q*100, len(lat))
	r.add("peak_heap_mb", "MB", float64(u.peakHeap)/(1<<20), "largest live heap after a collection, sampled every 10ms")
	r.add("sweep.first_point_p50_ms", "ms", median(first), "n=%d streams", len(first))
	r.add("sweep.front_p50_ms", "ms", median(front), "n=%d streams", len(front))
	r.add("sweep.job_p50_ms", "ms", median(job), "n=%d jobs, submit to terminal poll", len(job))
	bad := 0
	for i, o := range u.ops {
		if o.err != nil || u.wrong[i] != nil {
			bad++
		}
	}
	for _, rp := range u.repeats {
		if u.wrong[rp.of] != nil {
			bad++
		}
	}
	r.add("error_rate", "ratio", ratio(float64(bad), float64(u.attempted())), "failed, refused or wrong over %d attempted", u.attempted())
	ut, tt := float64(countTimed(u))/u.elapsed.Seconds(), float64(countTimed(t.phase))/t.elapsed.Seconds()
	r.add("trace.throughput_rps", "1/s", tt, "traced phase")
	r.add("trace.overhead_ratio", "ratio", ratio(ut, tt), "untraced over traced throughput")
}
