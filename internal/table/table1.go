package table

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repliflow/internal/core"
	"repliflow/internal/exhaustive"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// GraphRow names a Table 1 row.
type GraphRow string

// The four application rows of Table 1.
const (
	HomPipeline GraphRow = "Hom. pipeline"
	HetPipeline GraphRow = "Het. pipeline"
	HomFork     GraphRow = "Hom. fork"
	HetFork     GraphRow = "Het. fork"
)

// Cell identifies one Table 1 cell: a platform half, a graph row, a model
// column and an objective sub-column.
type Cell struct {
	PlatformHom bool
	Graph       GraphRow
	WithDP      bool
	Objective   core.Objective // MinPeriod, MinLatency or LatencyUnderPeriod ("both")
}

// String implements fmt.Stringer.
func (c Cell) String() string {
	plat := "Het. platform"
	if c.PlatformHom {
		plat = "Hom. platform"
	}
	model := "without data-par"
	if c.WithDP {
		model = "with data-par"
	}
	obj := map[core.Objective]string{
		core.MinPeriod: "P", core.MinLatency: "L", core.LatencyUnderPeriod: "both",
	}[c.Objective]
	return fmt.Sprintf("%s / %s / %s / %s", plat, c.Graph, model, obj)
}

// Evidence is the empirical verification of one cell.
type Evidence struct {
	Cell
	Classification core.Classification
	// Trials/Agreements: for polynomial cells, how often the paper's
	// algorithm matched exhaustive search; for NP-hard cells, how often
	// the heuristic produced a valid (sound) solution.
	Trials, Agreements int
	// MaxHeuristicGap is heuristic/optimal on NP-hard cells (1 = optimal).
	MaxHeuristicGap float64
	// ReductionTrials/ReductionOK verify the NP-hardness reduction's
	// iff-property where one applies to the cell.
	ReductionTrials, ReductionOK int
	// Note carries details (reduction used, inheritance, failures).
	Note string
}

// AllCells enumerates the 48 (platform, graph, model, objective) cells.
func AllCells() []Cell {
	var cells []Cell
	for _, platHom := range []bool{true, false} {
		for _, g := range []GraphRow{HomPipeline, HetPipeline, HomFork, HetFork} {
			for _, dp := range []bool{false, true} {
				for _, obj := range []core.Objective{core.MinPeriod, core.MinLatency, core.LatencyUnderPeriod} {
					cells = append(cells, Cell{PlatformHom: platHom, Graph: g, WithDP: dp, Objective: obj})
				}
			}
		}
	}
	return cells
}

// randomInstance draws a random problem instance matching the cell's row.
func randomInstance(rng *rand.Rand, c Cell) core.Problem {
	var pl platform.Platform
	if c.PlatformHom {
		pl = platform.Homogeneous(1+rng.Intn(4), float64(1+rng.Intn(3)))
	} else {
		for {
			pl = platform.Random(rng, 2+rng.Intn(3), 5)
			if !pl.IsHomogeneous() {
				break
			}
		}
	}
	pr := core.Problem{Platform: pl, AllowDataParallel: c.WithDP, Objective: c.Objective}
	switch c.Graph {
	case HomPipeline:
		p := workflow.HomogeneousPipeline(1+rng.Intn(4), float64(1+rng.Intn(9)))
		pr.Pipeline = &p
	case HetPipeline:
		for {
			p := workflow.RandomPipeline(rng, 2+rng.Intn(3), 9)
			if !p.IsHomogeneous() {
				pr.Pipeline = &p
				break
			}
		}
	case HomFork:
		f := workflow.HomogeneousFork(float64(1+rng.Intn(9)), rng.Intn(4), float64(1+rng.Intn(9)))
		pr.Fork = &f
	case HetFork:
		for {
			f := workflow.RandomFork(rng, 2+rng.Intn(2), 9)
			if !f.IsHomogeneous() {
				pr.Fork = &f
				break
			}
		}
	}
	return pr
}

// exhaustiveReference returns the exact optimum for the problem's
// objective, using the exponential solvers. A solve on a background
// context cannot fail, so its error is not checked.
func exhaustiveReference(pr core.Problem) (float64, bool) {
	goal := core.GoalOf(pr)
	var (
		c  mapping.Cost
		ok bool
	)
	if pr.Pipeline != nil {
		r, found, _ := exhaustive.NewPipelinePrepared(*pr.Pipeline, pr.Platform, pr.AllowDataParallel).Solve(context.Background(), goal)
		c, ok = r.Cost, found
	} else {
		r, found, _ := exhaustive.NewForkPrepared(*pr.Fork, pr.Platform, pr.AllowDataParallel).Solve(context.Background(), goal)
		c, ok = r.Cost, found
	}
	return goal.Value(c), ok
}

// VerifyCell gathers evidence for one cell on `trials` random instances.
func VerifyCell(rng *rand.Rand, c Cell, trials int) Evidence {
	ev := Evidence{Cell: c, MaxHeuristicGap: 1}
	probe := randomInstance(rng, c)
	if c.Objective == core.LatencyUnderPeriod {
		probe.Bound = 1 // placeholder for classification only
	}
	cl, err := core.Classify(probe)
	if err != nil {
		ev.Note = "classification error: " + err.Error()
		return ev
	}
	ev.Classification = cl

	for t := 0; t < trials; t++ {
		pr := randomInstance(rng, c)
		if c.Objective == core.LatencyUnderPeriod {
			// Pick a meaningful bound: 1.5x the optimal period.
			base := pr
			base.Objective = core.MinPeriod
			opt, ok := exhaustiveReference(base)
			if !ok {
				continue
			}
			pr.Bound = opt * 1.5
		}
		ev.Trials++
		if cl.Complexity.Polynomial() {
			sol, err := core.Solve(pr, core.Options{})
			if err != nil || !sol.Feasible || !sol.Exact {
				continue
			}
			ref, ok := exhaustiveReference(pr)
			if ok && numeric.Eq(core.GoalOf(pr).Value(sol.Cost), ref) {
				ev.Agreements++
			}
			continue
		}
		// NP-hard cell: exhaustive (exact) vs forced heuristic.
		exact, err := core.Solve(pr, core.Options{})
		if err != nil || !exact.Feasible {
			continue
		}
		tiny := core.Options{MaxExhaustivePipelineProcs: 1, MaxExhaustiveForkStages: 1, MaxExhaustiveForkProcs: 1}
		heur, err := core.Solve(pr, tiny)
		if err != nil || !heur.Feasible {
			continue
		}
		ev.Agreements++
		goal := core.GoalOf(pr)
		if gap := goal.Value(heur.Cost) / goal.Value(exact.Cost); gap > ev.MaxHeuristicGap {
			ev.MaxHeuristicGap = gap
		}
	}
	return ev
}

// VerifyTable1 verifies every cell with the given number of random trials
// per cell.
func VerifyTable1(seed int64, trials int) []Evidence {
	rng := rand.New(rand.NewSource(seed))
	cells := AllCells()
	out := make([]Evidence, 0, len(cells))
	for _, c := range cells {
		out = append(out, VerifyCell(rng, c, trials))
	}
	return out
}

// VerifyTable1Parallel verifies the cells concurrently, one goroutine per
// cell with a derived deterministic seed each, bounded by maxWorkers
// (0 = one per cell). Results are identical across runs for a fixed seed
// but differ from VerifyTable1's, whose cells share one random stream.
func VerifyTable1Parallel(seed int64, trials, maxWorkers int) []Evidence {
	cells := AllCells()
	out := make([]Evidence, len(cells))
	if maxWorkers <= 0 || maxWorkers > len(cells) {
		maxWorkers = len(cells)
	}
	sem := make(chan struct{}, maxWorkers)
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c Cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
			out[i] = VerifyCell(rng, c, trials)
		}(i, c)
	}
	wg.Wait()
	return out
}

// RenderTable1 formats the evidence in the layout of the paper's Table 1,
// annotated with the verification outcome of each cell.
func RenderTable1(evidence []Evidence) string {
	index := make(map[Cell]Evidence, len(evidence))
	for _, ev := range evidence {
		index[ev.Cell] = ev
	}
	var b strings.Builder
	for _, platHom := range []bool{true, false} {
		if platHom {
			fmt.Fprintf(&b, "Hom. platforms%42s | %s\n", "without data-par", "with data-par")
		} else {
			fmt.Fprintf(&b, "Het. platforms%42s | %s\n", "without data-par", "with data-par")
		}
		fmt.Fprintf(&b, "%-14s | %-19s %-19s %-19s | %-19s %-19s %-19s\n",
			"", "P", "L", "both", "P", "L", "both")
		for _, g := range []GraphRow{HomPipeline, HetPipeline, HomFork, HetFork} {
			fmt.Fprintf(&b, "%-14s |", g)
			for _, dp := range []bool{false, true} {
				for _, obj := range []core.Objective{core.MinPeriod, core.MinLatency, core.LatencyUnderPeriod} {
					ev, ok := index[Cell{PlatformHom: platHom, Graph: g, WithDP: dp, Objective: obj}]
					if !ok {
						fmt.Fprintf(&b, " %-19s", "?")
						continue
					}
					label := ev.Classification.Complexity.String()
					detail := fmt.Sprintf("%d/%d", ev.Agreements, ev.Trials)
					if ev.Classification.Complexity == core.NPHard && ev.MaxHeuristicGap > 1 {
						detail += fmt.Sprintf(" g%.2f", ev.MaxHeuristicGap)
					}
					fmt.Fprintf(&b, " %-19s", label+" "+detail)
				}
				if !dp {
					fmt.Fprintf(&b, " |")
				}
			}
			fmt.Fprintf(&b, "\n")
		}
		fmt.Fprintf(&b, "\n")
	}
	b.WriteString("Legend: a/b = verified instances / trials; for polynomial cells the paper's\n")
	b.WriteString("algorithm matched exhaustive search; for NP-hard cells both exact and heuristic\n")
	b.WriteString("solvers produced sound mappings, gX.XX = worst heuristic/optimal ratio.\n")
	return b.String()
}
