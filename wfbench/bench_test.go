package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/instance"
	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.90}, {40, 0.75}, {20, 0.5}, {3, 0.5}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The expected spreads are Python's statistics.quantiles(xs, n=4):
// (Q3 - Q1) / median.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{16, 1, 8, 2, 4}, (12 - 1.5) / 4.0},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2.0},
		{[]float64{1, 3}, (3.5 - 0.5) / 2.0},
	} {
		if got := quartileSpread(c.xs); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "server", Start: 30, End: 60}, // overlaps the first child
		{ID: 4, Parent: 2, Name: "x", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 25 || self[3] != 30 || self[4] != 5 {
		t.Errorf("self times = %v, want 1:50 2:25 3:30 4:5", self)
	}
}

// solved returns ins with its solution from the library, as the server
// would answer it.
func solved(t *testing.T, ins instance.Instance) instance.SolutionJSON {
	t.Helper()
	pr, err := ins.Problem()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(pr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return instance.FromSolution(sol)
}

func TestCheckerAcceptsEveryKindAndRejectsCorruptedCost(t *testing.T) {
	g := newGen(7, 0)
	o := newOracle()
	for i := 0; i < 120; i++ {
		ins := g.small(kindNames[i%len(kindNames)])
		sj := solved(t, ins)
		if err := checkSolution(o, ins, sj); err != nil {
			t.Fatalf("%s instance %d: correct answer rejected: %v", kindOf(ins), i, err)
		}
		if !sj.Feasible {
			continue
		}
		bad := sj
		bad.Period *= 1.01
		if _, err := checkAnswer(ins, bad); err == nil {
			t.Errorf("%s instance %d: corrupted period accepted", kindOf(ins), i)
		}
		bad = sj
		bad.Latency += 0.5
		if _, err := checkAnswer(ins, bad); err == nil {
			t.Errorf("%s instance %d: corrupted latency accepted", kindOf(ins), i)
		}
	}
}

func TestCheckerRejectsSuboptimalExactAnswer(t *testing.T) {
	// Replicating the whole pipeline over three unit processors gives
	// period 4; the whole pipeline on one processor is a valid mapping
	// of period 12, so claiming it exact must fail against the oracle.
	ins := instance.Instance{
		Pipeline:  &instance.PipelineJSON{Weights: []float64{4, 4, 4}},
		Platform:  instance.PlatformJSON{Speeds: []float64{1, 1, 1}},
		Objective: "min-period",
	}
	sj := solved(t, ins)
	p := workflow.NewPipeline(4, 4, 4)
	m := mapping.WholeOnProcessor(p, 0)
	c, err := mapping.EvalPipeline(p, platform.New(1, 1, 1), m)
	if err != nil {
		t.Fatal(err)
	}
	sub := instance.FromSolution(core.Solution{
		PipelineMapping: &m, Cost: c, Feasible: true, Exact: true,
		Method: core.MethodClosedForm, Classification: core.ClassifyCell(core.CellKeyOf(mustProblem(t, ins))),
	})
	if _, err := checkAnswer(ins, sub); err != nil {
		t.Fatalf("the suboptimal mapping should evaluate consistently: %v", err)
	}
	o := newOracle()
	if err := checkSolution(o, ins, sj); err != nil {
		t.Fatalf("optimal answer rejected: %v", err)
	}
	if err := checkSolution(o, ins, sub); err == nil {
		t.Error("suboptimal answer claimed exact was accepted")
	}
}

func mustProblem(t *testing.T, ins instance.Instance) core.Problem {
	t.Helper()
	pr, err := ins.Problem()
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestCheckerRejectsWrongAnytimeGap(t *testing.T) {
	g := newGen(3, 0)
	ins := g.oversized()
	pr := mustProblem(t, ins)
	sol, err := core.Solve(pr, core.Options{AnytimeBudget: 20e6})
	if err != nil {
		t.Fatal(err)
	}
	sj := instance.FromSolution(sol)
	if !sj.Anytime {
		t.Fatal("budgeted oversized instance was not solved by the anytime portfolio")
	}
	if _, err := checkAnswer(ins, sj); err != nil {
		t.Fatalf("anytime answer rejected: %v", err)
	}
	gap := *sj.Gap + 0.05
	bad := sj
	bad.Gap = &gap
	if _, err := checkAnswer(ins, bad); err == nil {
		t.Error("anytime answer with a wrong gap accepted")
	}
	bad = sj
	bad.LowerBound = sj.Period * 2
	if _, err := checkAnswer(ins, bad); err == nil {
		t.Error("anytime answer with a lower bound above its objective accepted")
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b := newGen(11, 2), newGen(11, 2)
	for i := 0; i < 30; i++ {
		x, y := mustJSON(a.hard(i)), mustJSON(b.hard(i))
		if !bytes.Equal(x, y) {
			t.Fatalf("draw %d differs between two generators with one seed", i)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare with the
// printed metrics.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smoke runs one workload briefly and returns its result line.
func smoke(t *testing.T, name string, traced bool) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, name, 5, 1, traced, t.TempDir()); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", name, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

func metricNames(res result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server")
	}
	spec := loadSpec(t)
	var want []string
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(want)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		res := smoke(t, w.Name, false)
		if got := metricNames(res); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s prints %v, BENCHMARK.json lists %v", w.Name, got, want)
		}
		for name, m := range res.Metrics {
			if m.Unit != units[name] {
				t.Errorf("%s: %s in %s, BENCHMARK.json says %s", w.Name, name, m.Unit, units[name])
			}
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
	}
}

func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server")
	}
	spec := loadSpec(t)
	var want []string
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	res := smoke(t, "hot-cache", true)
	if got := metricNames(res); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("traced run prints %v, BENCHMARK.json lists %v", got, want)
	}
	if res.Metrics["engine.hit_ratio"].Value < 0.5 {
		t.Errorf("hot-cache engine.hit_ratio = %v, want most requests served from the cache", res.Metrics["engine.hit_ratio"].Value)
	}
}
