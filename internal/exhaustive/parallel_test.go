package exhaustive

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The partitioned parallel scans promise byte-identical results to the
// serial enumerations for every worker count. These corpora force the
// parallel paths (SetParallelism on prepared solvers bypasses core's
// crossover heuristic) and compare whole results — mapping, cost and
// found flag — against fresh serial solvers with reflect.DeepEqual.

// TestParallelForkScanIdentity: the partitioned fork scan returns
// byte-identical results to the serial scan, across objectives, bounds
// and worker counts.
func TestParallelForkScanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(4), 4)
		dp := trial%2 == 0
		par := 2 + rng.Intn(3)
		b := float64(1+rng.Intn(8)) / 2

		check := func(name string, solve func(fp *ForkPrepared) (ForkResult, bool, error)) {
			t.Helper()
			sp := NewForkPrepared(f, pl, dp)
			want, wantOK, err := solve(sp)
			if err != nil {
				t.Fatal(err)
			}
			pp := NewForkPrepared(f, pl, dp)
			pp.SetParallelism(par)
			got, gotOK, err := solve(pp)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s par=%d: parallel (%v, %v) != serial (%v, %v) for %v on %v dp=%v",
					trial, name, par, got, gotOK, want, wantOK, f, pl, dp)
			}
		}
		check("period", func(fp *ForkPrepared) (ForkResult, bool, error) {
			return fp.Solve(ctx, mapping.Goal{MinimizePeriod: true})
		})
		check("latency", func(fp *ForkPrepared) (ForkResult, bool, error) { return fp.Solve(ctx, mapping.Goal{}) })
		check("lup", func(fp *ForkPrepared) (ForkResult, bool, error) { return fp.Solve(ctx, mapping.Goal{PeriodCap: b}) })
		check("pul", func(fp *ForkPrepared) (ForkResult, bool, error) {
			return fp.Solve(ctx, mapping.Goal{MinimizePeriod: true, LatencyCap: b})
		})
	}
}

// TestParallelForkJoinScanIdentity is the fork-join mirror of
// TestParallelForkScanIdentity.
func TestParallelForkJoinScanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		fj := workflow.RandomForkJoin(rng, 1+rng.Intn(3), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		dp := trial%2 == 0
		par := 2 + rng.Intn(3)
		b := float64(1+rng.Intn(8)) / 2

		check := func(name string, solve func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error)) {
			t.Helper()
			sp := NewForkJoinPrepared(fj, pl, dp)
			want, wantOK, err := solve(sp)
			if err != nil {
				t.Fatal(err)
			}
			pp := NewForkJoinPrepared(fj, pl, dp)
			pp.SetParallelism(par)
			got, gotOK, err := solve(pp)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s par=%d: parallel (%v, %v) != serial (%v, %v) for %v on %v dp=%v",
					trial, name, par, got, gotOK, want, wantOK, fj, pl, dp)
			}
		}
		check("period", func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error) {
			return fp.Solve(ctx, mapping.Goal{MinimizePeriod: true})
		})
		check("latency", func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error) { return fp.Solve(ctx, mapping.Goal{}) })
		check("lup", func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error) {
			return fp.Solve(ctx, mapping.Goal{PeriodCap: b})
		})
		check("pul", func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error) {
			return fp.Solve(ctx, mapping.Goal{MinimizePeriod: true, LatencyCap: b})
		})
	}
}
