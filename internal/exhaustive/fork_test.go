package exhaustive

import (
	"math/rand"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/partition"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestPartitionsCount(t *testing.T) {
	// Bell numbers: partitions of m items (unbounded blocks).
	bell := map[int]int{1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
	for m, want := range bell {
		got := 0
		partition.From(make([]int, m), m, m, 0, 0, func([]int, int) bool { got++; return true })
		if got != want {
			t.Errorf("partitions(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestPartitionsBlockBound(t *testing.T) {
	// Partitions of 4 items into at most 2 blocks: S(4,1)+S(4,2) = 1+7 = 8.
	got := 0
	partition.From(make([]int, 4), 4, 2, 0, 0, func(_ []int, blocks int) bool {
		if blocks > 2 {
			t.Fatal("block bound exceeded")
		}
		got++
		return true
	})
	if got != 8 {
		t.Errorf("bounded partitions = %d, want 8", got)
	}
}

func TestForkPeriodHomPlatform(t *testing.T) {
	// Theorem 10: minimum period is total work / total speed, achieved by
	// replicating everything everywhere.
	f := workflow.NewFork(2, 3, 5, 2)
	pl := platform.Homogeneous(3, 1)
	res, ok := ForkPeriod(f, pl, true)
	if !ok || !numeric.Eq(res.Cost.Period, 4) { // 12/3
		t.Fatalf("period = %v, want 4 (mapping %v)", res.Cost.Period, res.Mapping)
	}
}

func TestForkLatencySingleProcessor(t *testing.T) {
	f := workflow.NewFork(2, 3, 5)
	pl := platform.New(2)
	res, ok := ForkLatency(f, pl, true)
	if !ok || !numeric.Eq(res.Cost.Latency, 5) { // 10/2
		t.Fatalf("latency = %v, want 5", res.Cost.Latency)
	}
}

func TestForkLatencyTwoProcessorSplit(t *testing.T) {
	// Fork w0=1, leaves 3 and 3, two unit processors. Putting one leaf with
	// the root and one apart gives latency max(4, 1+3) = 4.
	f := workflow.NewFork(1, 3, 3)
	pl := platform.Homogeneous(2, 1)
	res, ok := ForkLatency(f, pl, false)
	if !ok || !numeric.Eq(res.Cost.Latency, 4) {
		t.Fatalf("latency = %v, want 4 (mapping %v)", res.Cost.Latency, res.Mapping)
	}
}

func TestForkTheorem12ReductionShape(t *testing.T) {
	// The Theorem 12 reduction: fork with w0=1 and leaves a_i, 2 unit-speed
	// processors. A latency of 1 + S/2 is achievable iff the a_i can be
	// 2-partitioned. {1,2,3}: S=6, partition {1,2}/{3} -> latency 4.
	f := workflow.NewFork(1, 1, 2, 3)
	pl := platform.Homogeneous(2, 1)
	res, ok := ForkLatency(f, pl, false)
	if !ok || !numeric.Eq(res.Cost.Latency, 4) {
		t.Fatalf("latency = %v, want 4", res.Cost.Latency)
	}
	// {1,1,3}: S=5 cannot be halved; optimum is max over the best split:
	// root side gets x, other side 5-x; latency = max(1+x, 1+(5-x));
	// best x in {2,3} -> latency 1+3 = 4.
	f2 := workflow.NewFork(1, 1, 1, 3)
	res2, ok := ForkLatency(f2, pl, false)
	if !ok || !numeric.Eq(res2.Cost.Latency, 4) {
		t.Fatalf("latency = %v, want 4", res2.Cost.Latency)
	}
}

func TestForkLatencyUnderPeriodAndConverse(t *testing.T) {
	f := workflow.NewFork(2, 4, 4)
	pl := platform.Homogeneous(2, 1)
	// Unconstrained latency optimum.
	res, ok := ForkLatency(f, pl, false)
	if !ok {
		t.Fatal("no mapping")
	}
	// Under a period bound equal to the replicate-all period (10/2 = 5) we
	// can still achieve some latency; under period 4 fewer options remain.
	resP, ok := ForkLatencyUnderPeriod(f, pl, false, 5)
	if !ok || numeric.Less(resP.Cost.Latency, res.Cost.Latency) {
		t.Fatalf("constrained latency %v beats unconstrained %v", resP.Cost.Latency, res.Cost.Latency)
	}
	if _, ok := ForkLatencyUnderPeriod(f, pl, false, 0.1); ok {
		t.Error("period bound 0.1 should be infeasible")
	}
	resL, ok := ForkPeriodUnderLatency(f, pl, false, res.Cost.Latency)
	if !ok {
		t.Fatal("period under latency infeasible at the latency optimum")
	}
	if numeric.Greater(resL.Cost.Latency, res.Cost.Latency) {
		t.Fatalf("returned mapping violates the latency bound: %v > %v", resL.Cost.Latency, res.Cost.Latency)
	}
}

func TestForkParetoMonotone(t *testing.T) {
	f := workflow.NewFork(2, 3, 5)
	pl := platform.New(2, 1, 1)
	front := ForkPareto(f, pl, true)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	for i := 1; i < len(front); i++ {
		if !numeric.Less(front[i-1].Cost.Period, front[i].Cost.Period) {
			t.Errorf("periods not strictly increasing: %v then %v", front[i-1].Cost, front[i].Cost)
		}
		if !numeric.Greater(front[i-1].Cost.Latency, front[i].Cost.Latency) {
			t.Errorf("latencies not strictly decreasing: %v then %v", front[i-1].Cost, front[i].Cost)
		}
	}
	// Endpoints are the mono-criterion optima.
	bestP, _ := ForkPeriod(f, pl, true)
	bestL, _ := ForkLatency(f, pl, true)
	if !numeric.Eq(front[0].Cost.Period, bestP.Cost.Period) {
		t.Errorf("front[0].Period = %v, want %v", front[0].Cost.Period, bestP.Cost.Period)
	}
	if !numeric.Eq(front[len(front)-1].Cost.Latency, bestL.Cost.Latency) {
		t.Errorf("front[last].Latency = %v, want %v", front[len(front)-1].Cost.Latency, bestL.Cost.Latency)
	}
}

func TestEnumerateForkRespectsDataParRules(t *testing.T) {
	f := workflow.NewFork(2, 3)
	pl := platform.Homogeneous(2, 1)
	sawRootDP := false
	EnumerateFork(f, pl, true, func(m mapping.ForkMapping, _ mapping.Cost) {
		for _, b := range m.Blocks {
			if b.Mode == mapping.DataParallel && b.Root && len(b.Leaves) > 0 {
				t.Fatal("enumerated root data-parallel block with leaves")
			}
			if b.Mode == mapping.DataParallel && b.Root {
				sawRootDP = true
			}
		}
	})
	if !sawRootDP {
		t.Error("never enumerated S0 alone data-parallelized")
	}
}

func TestEnumerateForkWithoutDPHasNoDP(t *testing.T) {
	f := workflow.NewFork(2, 3, 1)
	pl := platform.Homogeneous(2, 1)
	EnumerateFork(f, pl, false, func(m mapping.ForkMapping, _ mapping.Cost) {
		for _, b := range m.Blocks {
			if b.Mode == mapping.DataParallel {
				t.Fatal("data-parallel block enumerated with allowDP=false")
			}
		}
	})
}

func TestForkSolversReturnAchievableCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(3), 6)
		pl := platform.Random(rng, 1+rng.Intn(3), 3)
		res, ok := ForkPeriod(f, pl, true)
		if !ok {
			t.Fatal("no mapping")
		}
		c, err := mapping.EvalFork(f, pl, res.Mapping)
		if err != nil || !numeric.Eq(c.Period, res.Cost.Period) {
			t.Fatalf("reported %v, evaluated %v (err=%v)", res.Cost, c, err)
		}
	}
}
