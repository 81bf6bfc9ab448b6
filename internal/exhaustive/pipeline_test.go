package exhaustive

import (
	"math/rand"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

var example = workflow.NewPipeline(14, 4, 2, 4)

func TestSection2HomOptimalPeriod(t *testing.T) {
	// On 3 identical unit-speed processors the optimal period is 8
	// (replicate everything), with or without data-parallelism (Lemma 1).
	pl := platform.Homogeneous(3, 1)
	for _, allowDP := range []bool{false, true} {
		res, ok := PipelinePeriod(example, pl, allowDP)
		if !ok {
			t.Fatal("no mapping found")
		}
		if !numeric.Eq(res.Cost.Period, 8) {
			t.Errorf("allowDP=%v: period = %v, want 8 (mapping %v)", allowDP, res.Cost.Period, res.Mapping)
		}
	}
}

func TestSection2HomOptimalLatency(t *testing.T) {
	pl := platform.Homogeneous(3, 1)
	// Without data-parallelism every mapping has latency 24 (Theorem 2).
	res, ok := PipelineLatency(example, pl, false)
	if !ok || !numeric.Eq(res.Cost.Latency, 24) {
		t.Errorf("latency without DP = %v, want 24", res.Cost.Latency)
	}
	// With data-parallelism the optimum is 17 (Section 2).
	res, ok = PipelineLatency(example, pl, true)
	if !ok || !numeric.Eq(res.Cost.Latency, 17) {
		t.Errorf("latency with DP = %v, want 17 (mapping %v)", res.Cost.Latency, res.Mapping)
	}
}

func TestSection2HetOptimalPeriod(t *testing.T) {
	// The paper claims period 5 is optimal on speeds 2,2,1,1 "as can be
	// checked by an exhaustive exploration", but under its own Section 3.4
	// model the mapping [S1,S2 replicated on P1,P2][S3,S4 replicated on
	// P3,P4] achieves 18/(2*2) = 4.5. Our exhaustive search finds that
	// optimum; table.Section2Report's row E2.15 records the discrepancy.
	pl := platform.New(2, 2, 1, 1)
	res, ok := PipelinePeriod(example, pl, true)
	if !ok || !numeric.Eq(res.Cost.Period, 4.5) {
		t.Errorf("period = %v, want 4.5 (mapping %v)", res.Cost.Period, res.Mapping)
	}
	// The paper's claimed-optimal value must remain achievable.
	if numeric.Greater(res.Cost.Period, 5) {
		t.Errorf("optimal period %v worse than the paper's claimed 5", res.Cost.Period)
	}
}

func TestSection2HetOptimalLatency(t *testing.T) {
	// The paper claims minimum latency 14/5 + 10 = 12.8, but that already
	// contradicts its own Theorem 6 (whole pipeline on a fastest processor:
	// 24/2 = 12). The true optimum under the Section 3.4 model is
	// 14/4 + 10/2 = 8.5 (S1 data-parallel on {P2,P3,P4}, the rest on P1).
	// table.Section2Report's row E2.16 records the discrepancy.
	pl := platform.New(2, 2, 1, 1)
	res, ok := PipelineLatency(example, pl, true)
	if !ok || !numeric.Eq(res.Cost.Latency, 8.5) {
		t.Errorf("latency = %v, want 8.5 (mapping %v)", res.Cost.Latency, res.Mapping)
	}
	// Without data-parallelism, Theorem 6 applies: 24/2 = 12.
	res, ok = PipelineLatency(example, pl, false)
	if !ok || !numeric.Eq(res.Cost.Latency, 12) {
		t.Errorf("latency without DP = %v, want 12 (Theorem 6)", res.Cost.Latency)
	}
}

func TestSingleProcessorSingleStage(t *testing.T) {
	p := workflow.NewPipeline(6)
	pl := platform.New(2)
	res, ok := PipelinePeriod(p, pl, true)
	if !ok || !numeric.Eq(res.Cost.Period, 3) || !numeric.Eq(res.Cost.Latency, 3) {
		t.Fatalf("got %v", res.Cost)
	}
}

func TestLatencyUnderPeriodTradeoff(t *testing.T) {
	// Section 2, homogeneous: period <= 10 admits latency 17 (data-par S1 on
	// two processors); unconstrained latency optimum has period 10 as well;
	// but period <= 8 forces full replication, latency 24.
	pl := platform.Homogeneous(3, 1)
	res, ok := PipelineLatencyUnderPeriod(example, pl, true, 10)
	if !ok || !numeric.Eq(res.Cost.Latency, 17) {
		t.Errorf("latency under period 10 = %v, want 17", res.Cost.Latency)
	}
	res, ok = PipelineLatencyUnderPeriod(example, pl, true, 8)
	if !ok || !numeric.Eq(res.Cost.Latency, 24) {
		t.Errorf("latency under period 8 = %v, want 24", res.Cost.Latency)
	}
	if _, ok := PipelineLatencyUnderPeriod(example, pl, true, 1); ok {
		t.Error("period bound 1 should be infeasible")
	}
}

func TestPeriodUnderLatencyTradeoff(t *testing.T) {
	pl := platform.Homogeneous(3, 1)
	// Latency <= 24 allows the period optimum 8.
	res, ok := PipelinePeriodUnderLatency(example, pl, true, 24)
	if !ok || !numeric.Eq(res.Cost.Period, 8) {
		t.Errorf("period under latency 24 = %v, want 8", res.Cost.Period)
	}
	// Latency <= 17 forces the data-parallel mapping, period 10.
	res, ok = PipelinePeriodUnderLatency(example, pl, true, 17)
	if !ok || !numeric.Eq(res.Cost.Period, 10) {
		t.Errorf("period under latency 17 = %v, want 10", res.Cost.Period)
	}
	if _, ok := PipelinePeriodUnderLatency(example, pl, true, 10); ok {
		t.Error("latency bound 10 should be infeasible")
	}
}

func TestParetoFrontSection2(t *testing.T) {
	pl := platform.Homogeneous(3, 1)
	front := PipelinePareto(example, pl, true)
	if len(front) < 2 {
		t.Fatalf("front too small: %d points", len(front))
	}
	// Endpoints match the mono-criterion optima.
	if !numeric.Eq(front[0].Cost.Period, 8) {
		t.Errorf("front[0].Period = %v, want 8", front[0].Cost.Period)
	}
	if !numeric.Eq(front[len(front)-1].Cost.Latency, 17) {
		t.Errorf("front[last].Latency = %v, want 17", front[len(front)-1].Cost.Latency)
	}
	// Strict monotonicity.
	for i := 1; i < len(front); i++ {
		if !numeric.Less(front[i-1].Cost.Period, front[i].Cost.Period) {
			t.Errorf("periods not increasing at %d: %v then %v", i, front[i-1].Cost, front[i].Cost)
		}
		if !numeric.Greater(front[i-1].Cost.Latency, front[i].Cost.Latency) {
			t.Errorf("latencies not decreasing at %d: %v then %v", i, front[i-1].Cost, front[i].Cost)
		}
	}
}

// TestDPMatchesEnumeration cross-checks the bitmask DP against the
// independent full enumeration on random instances.
func TestDPMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		p := 1 + rng.Intn(3)
		pipe := workflow.RandomPipeline(rng, n, 9)
		pl := platform.Random(rng, p, 4)
		allowDP := rng.Intn(2) == 0

		bestPeriod, bestLatency := numeric.Inf, numeric.Inf
		enumeratePipeline(pipe, pl, allowDP, func(_ mapping.PipelineMapping, c mapping.Cost) {
			if c.Period < bestPeriod {
				bestPeriod = c.Period
			}
			if c.Latency < bestLatency {
				bestLatency = c.Latency
			}
		})

		resP, ok := PipelinePeriod(pipe, pl, allowDP)
		if !ok || !numeric.Eq(resP.Cost.Period, bestPeriod) {
			t.Fatalf("trial %d: DP period %v != enumerated %v (pipe=%v pl=%v dp=%v)",
				trial, resP.Cost.Period, bestPeriod, pipe.Weights, pl.Speeds, allowDP)
		}
		resL, ok := PipelineLatency(pipe, pl, allowDP)
		if !ok || !numeric.Eq(resL.Cost.Latency, bestLatency) {
			t.Fatalf("trial %d: DP latency %v != enumerated %v (pipe=%v pl=%v dp=%v)",
				trial, resL.Cost.Latency, bestLatency, pipe.Weights, pl.Speeds, allowDP)
		}
	}
}

// TestLemma1NoDataParNeededForPeriodOnHom verifies Lemma 1 empirically: on
// homogeneous platforms the optimal period is identical with and without
// data-parallelism.
func TestLemma1NoDataParNeededForPeriodOnHom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		pipe := workflow.RandomPipeline(rng, 1+rng.Intn(5), 9)
		pl := platform.Homogeneous(1+rng.Intn(4), float64(1+rng.Intn(3)))
		with, ok1 := PipelinePeriod(pipe, pl, true)
		without, ok2 := PipelinePeriod(pipe, pl, false)
		if !ok1 || !ok2 {
			t.Fatal("no mapping found")
		}
		if !numeric.Eq(with.Cost.Period, without.Cost.Period) {
			t.Fatalf("trial %d: period with DP %v != without %v (pipe=%v pl=%v)",
				trial, with.Cost.Period, without.Cost.Period, pipe.Weights, pl.Speeds)
		}
	}
}

// TestLemma2NoReplicationNeededForLatency verifies Lemma 2 empirically: the
// optimal latency is achieved by some mapping in which every replicated
// group uses a single processor.
func TestLemma2NoReplicationNeededForLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		pipe := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		allowDP := rng.Intn(2) == 0
		overall, ok := PipelineLatency(pipe, pl, allowDP)
		if !ok {
			t.Fatal("no mapping found")
		}
		bestNoRep := numeric.Inf
		enumeratePipeline(pipe, pl, allowDP, func(m mapping.PipelineMapping, c mapping.Cost) {
			for _, iv := range m.Intervals {
				if iv.Mode == mapping.Replicated && len(iv.Procs) > 1 {
					return
				}
			}
			if c.Latency < bestNoRep {
				bestNoRep = c.Latency
			}
		})
		if !numeric.Eq(overall.Cost.Latency, bestNoRep) {
			t.Fatalf("trial %d: overall latency %v != no-replication latency %v",
				trial, overall.Cost.Latency, bestNoRep)
		}
	}
}

// TestReconstructedMappingsAchieveReportedCost checks that the mapping
// returned by each solver evaluates exactly to the reported cost.
func TestReconstructedMappingsAchieveReportedCost(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		pipe := workflow.RandomPipeline(rng, 1+rng.Intn(5), 9)
		pl := platform.Random(rng, 1+rng.Intn(4), 4)
		res, ok := PipelinePeriod(pipe, pl, true)
		if !ok {
			t.Fatal("no mapping")
		}
		c, err := mapping.EvalPipeline(pipe, pl, res.Mapping)
		if err != nil {
			t.Fatalf("invalid mapping: %v", err)
		}
		if !numeric.Eq(c.Period, res.Cost.Period) {
			t.Fatalf("reported %v, evaluated %v", res.Cost, c)
		}
	}
}
