package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
)

// TestParallelSolveIdentity is the core-level byte-identity corpus:
// Solve with any Parallelism setting — explicit worker counts, auto mode
// above and below the crossover — must return exactly the serial
// solution, on every graph kind and objective (polynomial cells ignore
// the option; NP-hard cells run the partitioned search).
func TestParallelSolveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 40; trial++ {
		pr := randomHardishProblem(rng)
		pr.Objective = Objective(rng.Intn(4))
		if pr.Objective.Bounded() {
			pr.Bound = float64(1 + rng.Intn(20)/2)
		}
		want, err := Solve(pr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{0, 1, 2, 4, -1, -3} {
			opts := Options{Parallelism: par}
			got, err := Solve(pr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d par=%d: parallel solve diverges\n got %+v\nwant %+v\nfor %+v",
					trial, par, got, want, pr)
			}
		}
	}
}

// TestParallelPreparedIdentity: a prepared solver answering solves at
// alternating parallelism — SetParallelism switches between solves, the
// bound memos mix entries computed at different counts — must stay
// byte-identical to serial SolveContext throughout.
func TestParallelPreparedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ctx := context.Background()
	prepared := 0
	for trial := 0; trial < 40; trial++ {
		pr := randomHardishProblem(rng)
		ps, ok := Prepare(pr, Options{Parallelism: 3})
		if !ok {
			continue
		}
		prepared++
		type solveCase struct {
			obj   Objective
			bound float64
			par   int
		}
		cases := []solveCase{
			{MinPeriod, 0, 3},
			{MinLatency, 0, 0},
			{LatencyUnderPeriod, float64(1+rng.Intn(6)) / 2, 2},
			{PeriodUnderLatency, float64(1+rng.Intn(8)) / 2, 4},
		}
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		// Repeats answer from memos populated at a different count.
		cases = append(cases, cases...)
		for i, c := range cases {
			if i >= len(cases)/2 {
				c.par = 1 // replay the same solves serially
			}
			ps.SetParallelism(c.par)
			got, err := ps.Solve(ctx, c.obj, c.bound)
			if err != nil {
				t.Fatal(err)
			}
			sub := pr
			sub.Objective = c.obj
			sub.Bound = c.bound
			want, err := SolveContext(ctx, sub, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v bound=%g par=%d: prepared parallel solve diverges\n got %+v\nwant %+v",
					trial, c.obj, c.bound, c.par, got, want)
			}
		}
	}
	if prepared < 8 {
		t.Fatalf("only %d/40 trials exercised the prepared path; corpus too weak", prepared)
	}
}

// TestCommPipelineCrossover: commPipeLeaves counts the mappings the
// heterogeneous comm-pipeline scan visits, and auto mode keeps every
// instance within the default exhaustive limits serial while larger
// ones shard.
func TestCommPipelineCrossover(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for p := 1; p <= 5; p++ {
			var count func(i, mask int) int
			count = func(i, mask int) int {
				if i == n {
					return 1
				}
				total := 0
				for j := i; j < n; j++ {
					for u := 0; u < p; u++ {
						if mask&(1<<u) == 0 {
							total += count(j+1, mask|1<<u)
						}
					}
				}
				return total
			}
			if got, want := commPipeLeaves(n, p), count(0, 0); got != float64(want) {
				t.Errorf("commPipeLeaves(%d, %d) = %v, want %d", n, p, got, want)
			}
		}
	}
	d := Options{}.Normalized()
	hetComm := func(n, p int) Problem {
		w := make([]float64, n)
		data := make([]float64, n+1)
		speeds := make([]float64, p)
		for i := range w {
			w[i] = float64(1 + i%3)
		}
		for i := range speeds {
			speeds[i] = float64(1 + i)
		}
		cp := fullmodel.NewPipeline(w, data)
		return Problem{CommPipeline: &cp, Bandwidth: &fullmodel.Bandwidth{Uniform: 1}, Platform: platform.New(speeds...)}
	}
	if pr := hetComm(d.MaxExhaustiveForkStages, d.MaxExhaustiveForkProcs); parallelWorthwhile(pr) {
		t.Errorf("auto mode shards the largest default-limit comm pipeline (%d stages x %d processors)",
			d.MaxExhaustiveForkStages, d.MaxExhaustiveForkProcs)
	}
	if pr := hetComm(7, 6); !parallelWorthwhile(pr) {
		t.Error("auto mode keeps a 7 x 6 heterogeneous comm pipeline serial")
	}
}
