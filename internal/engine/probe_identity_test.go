package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// randomSweepProblem returns a random instance of any of the six kinds,
// small enough that every NP-hard cell stays exhaustive under the
// default limits. Platforms are homogeneous or not; the comm kinds get a
// uniform bandwidth, a table with one value everywhere (still fully
// homogeneous) or a table of random links.
func randomSweepProblem(rng *rand.Rand) core.Problem {
	pr := core.Problem{AllowDataParallel: rng.Intn(2) == 0, Objective: core.MinPeriod}
	procs := 1 + rng.Intn(4)
	if rng.Intn(2) == 0 {
		pr.Platform = platform.Homogeneous(procs, float64(1+rng.Intn(3)))
	} else {
		pr.Platform = platform.Random(rng, procs, 4)
	}
	weights := func(n int, lo int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(lo + rng.Intn(9))
		}
		return ws
	}
	switch rng.Intn(6) {
	case 0:
		g := workflow.RandomPipeline(rng, 1+rng.Intn(5), 9)
		pr.Pipeline = &g
	case 1:
		g := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
		pr.Fork = &g
	case 2:
		g := workflow.RandomForkJoin(rng, 1+rng.Intn(2), 9)
		pr.ForkJoin = &g
	case 3:
		g := workflow.RandomSP(rng, 1+rng.Intn(6), 9, 4, 3)
		pr.SP = &g
		pr.AllowDataParallel = false
	case 4:
		n := 1 + rng.Intn(4)
		g := fullmodel.NewPipeline(weights(n, 1), weights(n+1, 0))
		pr.CommPipeline = &g
		pr.AllowDataParallel = false
	default:
		leaves := rng.Intn(4)
		f := fullmodel.Fork{
			Root: float64(1 + rng.Intn(9)), In: float64(rng.Intn(3)), Out0: float64(rng.Intn(3)),
			Weights: weights(leaves, 1), Outs: weights(leaves, 0),
		}
		pr.CommFork = &f
		pr.AllowDataParallel = false
	}
	if pr.CommPipeline != nil || pr.CommFork != nil {
		pr.Bandwidth = randomBandwidth(rng, procs)
	}
	return pr
}

// randomBandwidth draws one of the three bandwidth shapes: uniform, a
// table holding one value everywhere, or a table of random links.
func randomBandwidth(rng *rand.Rand, procs int) *fullmodel.Bandwidth {
	b := float64(1 + rng.Intn(4))
	shape := rng.Intn(3)
	if shape == 0 {
		return &fullmodel.Bandwidth{Uniform: b}
	}
	draw := func() float64 {
		if shape == 1 {
			return b
		}
		return float64(1 + rng.Intn(4))
	}
	bw := &fullmodel.Bandwidth{Links: make([][]float64, procs), In: make([]float64, procs), Out: make([]float64, procs)}
	for u := range bw.Links {
		bw.Links[u] = make([]float64, procs)
		for v := range bw.Links[u] {
			if u != v {
				bw.Links[u][v] = draw()
			}
		}
		bw.In[u], bw.Out[u] = draw(), draw()
	}
	return bw
}

// TestSweepProbeIdentity pins what the period-tightening probe used to
// guarantee, now that exact sweeps over complete candidate sets skip it:
// every exact front point is exactly — mapping, cost, method and
// classification — the solution a fresh PeriodUnderLatency solve returns
// at the point's latency. It checks the serial core front and the
// engine's incremental sweep on two workers, which must also agree with
// each other, over random instances of all six kinds.
func TestSweepProbeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ctx := context.Background()
	trials := 2000
	if testing.Short() {
		trials = 300
	}
	kinds := map[string]int{}
	skipped := 0
	for trial := 0; trial < trials; trial++ {
		pr := randomSweepProblem(rng)
		serial, err := core.ParetoFrontWith(ctx, pr, core.Options{}, nil)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, core.CellKeyOf(pr), err)
		}
		e := New(2)
		streamed, err := e.ParetoFront(ctx, pr, core.Options{})
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, core.CellKeyOf(pr), err)
		}
		if !reflect.DeepEqual(serial, streamed) {
			t.Fatalf("trial %d (%v): engine front diverges from the serial front\nserial: %#v\nengine: %#v",
				trial, core.CellKeyOf(pr), serial, streamed)
		}
		for i, point := range serial {
			if !point.Exact {
				continue
			}
			pul := pr
			pul.Objective, pul.Bound = core.PeriodUnderLatency, point.Cost.Latency
			want, err := core.SolveContext(ctx, pul, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(point, want) {
				t.Fatalf("trial %d (%v) point %d differs from a fresh PeriodUnderLatency solve\npoint: %+v\nfresh: %+v",
					trial, core.CellKeyOf(pul), i, point, want)
			}
		}
		if plan, _ := core.PlanSweep(pr, core.Options{}); !plan.Tighten {
			skipped++
		}
		kinds[core.CellKeyOf(pr).Kind.String()]++
	}
	if len(kinds) != 6 || skipped == 0 || skipped == trials {
		t.Fatalf("corpus does not exercise every kind and both plans: kinds %v, %d of %d probe-free", kinds, skipped, trials)
	}
}
