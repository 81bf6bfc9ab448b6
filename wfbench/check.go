package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"repliflow/internal/core"
	"repliflow/internal/fullmodel"
	"repliflow/internal/instance"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/spdecomp"
	"repliflow/internal/workflow"
)

// evalCost re-evaluates the mapping of sol on pr with the model
// evaluators, independently of the solver that produced it.
func evalCost(pr core.Problem, sol core.Solution) (mapping.Cost, error) {
	switch {
	case pr.Pipeline != nil && sol.PipelineMapping != nil:
		return mapping.EvalPipeline(*pr.Pipeline, pr.Platform, *sol.PipelineMapping)
	case pr.Fork != nil && sol.ForkMapping != nil:
		return mapping.EvalFork(*pr.Fork, pr.Platform, *sol.ForkMapping)
	case pr.ForkJoin != nil && sol.ForkJoinMapping != nil:
		return mapping.EvalForkJoin(*pr.ForkJoin, pr.Platform, *sol.ForkJoinMapping)
	case pr.SP != nil && sol.SPMapping != nil:
		return evalSP(*pr.SP, pr, *sol.SPMapping)
	case pr.CommPipeline != nil && sol.CommPipelineMapping != nil:
		c, err := fullmodel.Eval(*pr.CommPipeline, pr.Bandwidth.Apply(pr.Platform.Speeds), *sol.CommPipelineMapping)
		return mapping.Cost{Period: c.Period, Latency: c.Latency}, err
	case pr.CommFork != nil && sol.CommForkMapping != nil:
		c, err := fullmodel.EvalFork(*pr.CommFork, pr.Bandwidth.Apply(pr.Platform.Speeds), *sol.CommForkMapping, false)
		return mapping.Cost{Period: c.Period, Latency: c.Latency}, err
	}
	return mapping.Cost{}, fmt.Errorf("solution carries no mapping of the instance's kind")
}

// evalSP evaluates an SP mapping: block mappings in the block model, and
// reduced mappings on the reduced graph after checking the reduction the
// solver reported is the one the decomposer finds.
func evalSP(g workflow.SP, pr core.Problem, m mapping.SPMapping) (mapping.Cost, error) {
	if m.Reduced == workflow.KindSP {
		return spdecomp.Eval(g, pr.Platform, m.Blocks)
	}
	red, ok := spdecomp.Reduce(g)
	if !ok || red.Kind != m.Reduced || !slices.Equal(red.Order, m.Order) {
		return mapping.Cost{}, fmt.Errorf("sp mapping reports reduction %v %v, decomposer finds %v %v", m.Reduced, m.Order, red.Kind, red.Order)
	}
	switch {
	case red.Pipeline != nil && m.Pipeline != nil:
		return mapping.EvalPipeline(*red.Pipeline, pr.Platform, *m.Pipeline)
	case red.Fork != nil && m.Fork != nil:
		return mapping.EvalFork(*red.Fork, pr.Platform, *m.Fork)
	case red.ForkJoin != nil && m.ForkJoin != nil:
		return mapping.EvalForkJoin(*red.ForkJoin, pr.Platform, *m.ForkJoin)
	}
	return mapping.Cost{}, fmt.Errorf("sp mapping embeds no %v mapping", m.Reduced)
}

// objectiveValue is the criterion the objective optimises.
func objectiveValue(obj core.Objective, c mapping.Cost) float64 {
	if obj == core.MinLatency || obj == core.LatencyUnderPeriod {
		return c.Latency
	}
	return c.Period
}

// checkAnswer verifies one returned solution without an oracle: the
// mapping re-evaluates to the reported cost, bounded objectives respect
// their bound, and an anytime answer's lower bound and gap agree with its
// objective. It returns the decoded problem for a later oracle check.
func checkAnswer(ins instance.Instance, sj instance.SolutionJSON) (core.Problem, error) {
	pr, err := ins.Problem()
	if err != nil {
		return pr, fmt.Errorf("instance: %w", err)
	}
	sol, err := sj.Solution()
	if err != nil {
		return pr, fmt.Errorf("decoding solution: %w", err)
	}
	if !sol.Feasible {
		return pr, nil
	}
	c, err := evalCost(pr, sol)
	if err != nil {
		return pr, fmt.Errorf("evaluating mapping: %w", err)
	}
	if !numeric.Eq(c.Period, sol.Cost.Period) || !numeric.Eq(c.Latency, sol.Cost.Latency) {
		return pr, fmt.Errorf("reported (period %v, latency %v), mapping evaluates to (%v, %v)",
			sol.Cost.Period, sol.Cost.Latency, c.Period, c.Latency)
	}
	switch pr.Objective {
	case core.LatencyUnderPeriod:
		if !numeric.LessEq(c.Period, pr.Bound) {
			return pr, fmt.Errorf("period %v exceeds the bound %v", c.Period, pr.Bound)
		}
	case core.PeriodUnderLatency:
		if !numeric.LessEq(c.Latency, pr.Bound) {
			return pr, fmt.Errorf("latency %v exceeds the bound %v", c.Latency, pr.Bound)
		}
	}
	if sol.Anytime {
		obj := objectiveValue(pr.Objective, c)
		if !numeric.LessEq(sol.LowerBound, obj) {
			return pr, fmt.Errorf("anytime lower bound %v exceeds the objective %v", sol.LowerBound, obj)
		}
		want := 0.0
		if !sol.Exact && sol.LowerBound > 0 {
			want = math.Max(0, obj/sol.LowerBound-1)
		}
		if math.Abs(sol.Gap-want) > 1e-9*(1+want) {
			return pr, fmt.Errorf("anytime gap %v, objective %v over lower bound %v gives %v", sol.Gap, obj, sol.LowerBound, want)
		}
	}
	return pr, nil
}

// oracle memoises serial core.SolveContext results (no budget, no
// parallelism) by instance, for checking exact answers after the timed
// phase.
type oracle struct {
	mu   sync.Mutex
	memo map[string]core.Solution
}

func newOracle() *oracle { return &oracle{memo: make(map[string]core.Solution)} }

func (o *oracle) solve(pr core.Problem) (core.Solution, error) {
	key, err := json.Marshal(instance.FromProblem(pr))
	if err != nil {
		return core.Solution{}, err
	}
	o.mu.Lock()
	sol, ok := o.memo[string(key)]
	o.mu.Unlock()
	if ok {
		return sol, nil
	}
	sol, err = core.SolveContext(context.Background(), pr, core.Options{})
	if err != nil {
		return core.Solution{}, err
	}
	o.mu.Lock()
	o.memo[string(key)] = sol
	o.mu.Unlock()
	return sol, nil
}

// checkExact compares an exact answer with the oracle's: the same
// feasibility and the same optimal objective value.
func (o *oracle) checkExact(pr core.Problem, sj instance.SolutionJSON) error {
	want, err := o.solve(pr)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if want.Feasible != sj.Feasible {
		return fmt.Errorf("feasible %v, oracle says %v", sj.Feasible, want.Feasible)
	}
	if !sj.Feasible {
		return nil
	}
	got := objectiveValue(pr.Objective, mapping.Cost{Period: sj.Period, Latency: sj.Latency})
	if opt := objectiveValue(pr.Objective, want.Cost); !numeric.Eq(got, opt) {
		return fmt.Errorf("objective %v, oracle optimum %v", got, opt)
	}
	return nil
}

// checkFront verifies a Pareto front: every point passes checkAnswer,
// periods strictly increase while latencies strictly decrease, and on
// exact points the oracle's minimum latency under the point's period
// equals the point's latency.
func (o *oracle) checkFront(ins instance.Instance, front []instance.SolutionJSON) error {
	if len(front) == 0 {
		return fmt.Errorf("empty front")
	}
	for i, p := range front {
		pr, err := checkAnswer(ins, p)
		if err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		if !p.Feasible {
			return fmt.Errorf("point %d is infeasible", i)
		}
		if i > 0 && (!numeric.Less(front[i-1].Period, p.Period) || !numeric.Less(p.Latency, front[i-1].Latency)) {
			return fmt.Errorf("points %d and %d are not a strict trade-off", i-1, i)
		}
		if !p.Exact {
			continue
		}
		pr.Objective, pr.Bound = core.LatencyUnderPeriod, p.Period
		if err := o.checkExact(pr, p); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}
