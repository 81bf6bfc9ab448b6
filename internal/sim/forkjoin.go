package sim

import (
	"errors"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// SimulateForkJoin runs a mapped fork-join graph over the arrival stream
// under the flexible model, with one deliberate semantic choice exposed:
// servers are single-threaded and *block* while waiting for the leaves of
// other blocks before executing the join stage. The Section 3.4 period
// formula assumes wait-free processors (a processor's period is just its
// assigned work over its speed), so on mappings where the join must wait,
// the simulated sustainable period can exceed the analytic one — a model
// subtlety the analytic framework abstracts away.
//
// Supported mappings: the root block must not contain the join stage
// (fold such mappings into a single-block pipeline simulation instead);
// any other §6.3 mapping shape works, including join blocks with leaves.
func SimulateForkJoin(fj workflow.ForkJoin, pl platform.Platform, m mapping.ForkJoinMapping, arrivals []float64) (Trace, error) {
	if err := mapping.ValidateForkJoin(fj, pl, m); err != nil {
		return Trace{}, err
	}
	if len(arrivals) == 0 {
		return Trace{}, errors.New("sim: empty arrival stream")
	}
	var rootBlock, joinBlock mapping.ForkJoinBlock
	for _, b := range m.Blocks {
		if b.Root {
			rootBlock = b
		}
		if b.Join {
			joinBlock = b
		}
	}
	if rootBlock.Root && rootBlock.Join {
		return Trace{}, errors.New("sim: fork-join simulation does not support the join stage sharing the root's block")
	}

	n := len(arrivals)
	leafWeight := func(b mapping.ForkJoinBlock) float64 {
		var w float64
		for _, l := range b.Leaves {
			w += fj.Weights[l]
		}
		return w
	}

	// Root block: emits S0 completions and its own leaf completions.
	rootWork := fj.Root + leafWeight(rootBlock)
	var rootSt station
	if rootBlock.Mode == mapping.DataParallel {
		rootSt = dataParallelStation(rootWork, pl, rootBlock.Procs)
	} else {
		rootSt = replicatedStation(rootWork, pl, rootBlock.Procs)
	}
	rootOut, s0Out := rootSt.process(arrivals, fj.Root)

	// Leaf-only blocks.
	leafDone := make([]float64, n)
	copy(leafDone, rootOut)
	for _, b := range m.Blocks {
		if b.Root || b.Join {
			continue
		}
		var st station
		if b.Mode == mapping.DataParallel {
			st = dataParallelStation(leafWeight(b), pl, b.Procs)
		} else {
			st = replicatedStation(leafWeight(b), pl, b.Procs)
		}
		out, _ := st.process(s0Out, 0)
		for i, v := range out {
			if v > leafDone[i] {
				leafDone[i] = v
			}
		}
	}

	// Join block: per-server two-phase processing. Phase 1 runs the
	// block's own leaves as soon as S0 is done; its completions join the
	// global leaf barrier. Phase 2 runs the join stage once every leaf of
	// the data set is complete; the server blocks in between.
	k := len(joinBlock.Procs)
	speeds := make([]float64, k)
	for i, q := range joinBlock.Procs {
		speeds[i] = pl.Speeds[q]
	}
	if joinBlock.Mode == mapping.DataParallel {
		k = 1
		speeds = []float64{pl.SubsetSpeedSum(joinBlock.Procs)}
	}
	wl := leafWeight(joinBlock)
	serverFree := make([]float64, k)
	completions := make([]float64, n)
	prevLeafOut, prevJoinOut := 0.0, 0.0
	for i := 0; i < n; i++ {
		q := i % k
		start := s0Out[i]
		if serverFree[q] > start {
			start = serverFree[q]
		}
		ownLeavesDone := start + wl/speeds[q]
		if ownLeavesDone < prevLeafOut {
			ownLeavesDone = prevLeafOut
		}
		prevLeafOut = ownLeavesDone
		barrier := leafDone[i]
		if ownLeavesDone > barrier {
			barrier = ownLeavesDone
		}
		joinDone := barrier + fj.Join/speeds[q]
		if joinDone < prevJoinOut {
			joinDone = prevJoinOut
		}
		prevJoinOut = joinDone
		serverFree[q] = joinDone
		completions[i] = joinDone
	}
	return Trace{Arrivals: arrivals, Completions: completions}, nil
}
