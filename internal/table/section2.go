// Package table regenerates the paper's artifacts: the Section 2 worked
// example (every hand-derived number) and Table 1 (the complexity map,
// verified cell by cell against exhaustive search and the executable
// reductions). It backs cmd/wftable and the benchmark harness.
package table

import (
	"fmt"
	"strings"

	"repliflow/internal/exhaustive"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/pipealgo"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Section2Row is one checked claim of the worked example.
type Section2Row struct {
	ID          string
	Description string
	Paper       float64
	Measured    float64
	Match       bool
	Note        string
}

// Section2Pipeline is the running example of the paper: four stages of
// weights 14, 4, 2, 4.
func Section2Pipeline() workflow.Pipeline { return workflow.NewPipeline(14, 4, 2, 4) }

// Section2Report recomputes every number of the Section 2 worked example
// and compares it against the paper's claim. Mapping-evaluation rows must
// match exactly; two optimality claims for the heterogeneous platform are
// refuted by exhaustive search and carry explanatory notes (rows E2.15
// and E2.16: the true optima are period 4.5 and latency 8.5, not the
// paper's 5 and 12.8).
func Section2Report() []Section2Row {
	p := Section2Pipeline()
	hom := platform.Homogeneous(3, 1)
	hom4 := platform.Homogeneous(4, 1)
	het := platform.New(2, 2, 1, 1)

	var rows []Section2Row
	add := func(id, desc string, paper, measured float64, note string) {
		rows = append(rows, Section2Row{
			ID: id, Description: desc, Paper: paper, Measured: measured,
			Match: numeric.Eq(paper, measured), Note: note,
		})
	}
	evalCost := func(pl platform.Platform, m mapping.PipelineMapping) mapping.Cost {
		c, err := mapping.EvalPipeline(p, pl, m)
		if err != nil {
			panic("table: Section 2 mapping invalid: " + err.Error())
		}
		return c
	}

	// Homogeneous platform, 3 unit processors.
	baseline := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.Replicated, 0),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 1),
	}}
	add("E2.1", "S1 on P1, S2-S4 on P2: period", 14, evalCost(hom, baseline).Period, "")
	add("E2.2", "any mapping without data-par: latency", 24, evalCost(hom, baseline).Latency, "")

	full := mapping.ReplicateAllPipeline(p, hom)
	add("E2.3", "replicate all on 3 processors: period", 8, evalCost(hom, full).Period, "")

	partial := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.Replicated, 0, 1),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 2),
	}}
	add("E2.4", "S1 replicated on P1,P2; S2-S4 on P3: period", 10, evalCost(hom, partial).Period, "")

	fourProc := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.Replicated, 0, 1),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 2, 3),
	}}
	add("E2.5", "4 processors, both intervals replicated: period", 7, evalCost(hom4, fourProc).Period, "")

	dpS1 := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.DataParallel, 0, 1),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 2),
	}}
	add("E2.6", "S1 data-parallel on P1,P2; rest on P3: latency", 17, evalCost(hom, dpS1).Latency, "")
	add("E2.7", "same mapping: period", 10, evalCost(hom, dpS1).Period, "")

	// Optimality on the homogeneous platform.
	optP, _ := exhaustive.PipelinePeriod(p, hom, true)
	add("E2.8", "optimal period, hom platform (exhaustive)", 8, optP.Cost.Period, "")
	optL, _ := exhaustive.PipelineLatency(p, hom, true)
	add("E2.9", "optimal latency with data-par, hom platform", 17, optL.Cost.Latency, "")
	t3, err := pipealgo.HomLatencyDP(p, hom)
	if err != nil {
		panic(err)
	}
	add("E2.10", "Theorem 3 DP reproduces the latency optimum", 17, t3.Cost.Latency, "")

	// Heterogeneous platform: speeds 2,2,1,1.
	hetFull := mapping.ReplicateAllPipeline(p, het)
	add("E2.11", "het: replicate all on 4 processors: period", 6, evalCost(het, hetFull).Period, "")

	hetPaper := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.DataParallel, 0, 1),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 2, 3),
	}}
	add("E2.12", "het: paper's period mapping (S1 dp on P1,P2; rest repl on P3,P4)", 5, evalCost(het, hetPaper).Period, "")
	add("E2.13", "het: same mapping's latency", 13.5, evalCost(het, hetPaper).Latency, "")

	hetPaperLat := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.DataParallel, 0, 1, 2),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 3),
	}}
	add("E2.14", "het: paper's latency mapping (S1 dp on P1,P2,P3; rest on P4)", 12.8, evalCost(het, hetPaperLat).Latency, "")

	// The paper's optimality claims for the heterogeneous platform do not
	// hold under its own Section 3.4 model.
	hetOptP, _ := exhaustive.PipelinePeriod(p, het, true)
	add("E2.15", "het: optimal period (paper claims 5)", 5, hetOptP.Cost.Period,
		"paper's claim refuted: [S1,S2 repl on P1,P2][S3,S4 repl on P3,P4] achieves 18/(2*2) = 4.5")
	hetOptL, _ := exhaustive.PipelineLatency(p, het, true)
	add("E2.16", "het: optimal latency (paper claims 12.8)", 12.8, hetOptL.Cost.Latency,
		"paper's claim refuted: contradicts its own Theorem 6 (24/2 = 12); S1 dp on {P2,P3,P4} + rest on P1 achieves 8.5")

	return rows
}

// RenderSection2 formats the report as a text table.
func RenderSection2(rows []Section2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 2 worked example — pipeline (14,4,2,4)\n")
	fmt.Fprintf(&b, "%-6s %-68s %9s %9s %-5s\n", "id", "claim", "paper", "measured", "match")
	for _, r := range rows {
		match := "yes"
		if !r.Match {
			match = "NO"
		}
		fmt.Fprintf(&b, "%-6s %-68s %9.4g %9.4g %-5s\n", r.ID, r.Description, r.Paper, r.Measured, match)
		if r.Note != "" {
			fmt.Fprintf(&b, "       note: %s\n", r.Note)
		}
	}
	return b.String()
}
