package main

import (
	"fmt"
	"math/rand"

	"repliflow/internal/instance"
)

// The generators below build wire-format instances (docs/wire-format.md)
// from a seeded RNG only: the same seed yields the same instances, and
// the server under test receives nothing but their JSON encodings.

// kindNames lists the six workflow kinds in a fixed order; per-kind
// metrics are reported under these names.
var kindNames = []string{"pipeline", "fork", "fork-join", "sp", "comm-pipeline", "comm-fork"}

// kindOf returns the kind name of a wire instance.
func kindOf(ins instance.Instance) string {
	switch {
	case ins.Pipeline != nil:
		return "pipeline"
	case ins.Fork != nil:
		return "fork"
	case ins.ForkJoin != nil:
		return "fork-join"
	case ins.SP != nil:
		return "sp"
	case ins.CommPipeline != nil:
		return "comm-pipeline"
	default:
		return "comm-fork"
	}
}

// gen draws instances from one seeded stream.
type gen struct{ rng *rand.Rand }

func newGen(seed int64, stream int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed*1000003 + stream))}
}

// weights returns n integer weights in [1, max].
func (g *gen) weights(n, max int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = float64(1 + g.rng.Intn(max))
	}
	return ws
}

// speeds returns p processor speeds: all equal on a homogeneous
// platform, otherwise integers in [1, max] with at least two distinct.
func (g *gen) speeds(p, max int, hom bool) []float64 {
	if hom {
		s := float64(1 + g.rng.Intn(max))
		out := make([]float64, p)
		for i := range out {
			out[i] = s
		}
		return out
	}
	out := g.weights(p, max)
	if p > 1 && out[0] == out[1] {
		out[1] = float64(int(out[0])%max + 1)
	}
	return out
}

// bandwidth returns a uniform bandwidth or, on heterogeneous
// interconnects, full link tables with integer bandwidths in [1, max].
func (g *gen) bandwidth(p, max int, hom bool) *instance.BandwidthJSON {
	if hom {
		return &instance.BandwidthJSON{Uniform: float64(1 + g.rng.Intn(max))}
	}
	bw := &instance.BandwidthJSON{
		Links: make([][]float64, p),
		In:    g.weights(p, max),
		Out:   g.weights(p, max),
	}
	for u := range bw.Links {
		bw.Links[u] = make([]float64, p)
		for v := range bw.Links[u] {
			if u != v {
				bw.Links[u][v] = float64(1 + g.rng.Intn(max))
			}
		}
	}
	return bw
}

// objective draws one of the four objectives. Bounded objectives get a
// bound around the single-processor cost, so most are feasible and some
// are not.
func (g *gen) objective(ins *instance.Instance, work float64) {
	switch g.rng.Intn(6) {
	case 0, 1:
		ins.Objective = "min-period"
	case 2, 3:
		ins.Objective = "min-latency"
	case 4:
		ins.Objective = "latency-under-period"
		ins.Bound = work * (0.3 + 0.7*g.rng.Float64())
	default:
		ins.Objective = "period-under-latency"
		ins.Bound = work * (0.5 + g.rng.Float64())
	}
}

// spChain, spFork and spForkJoin build SP graphs that reduce to the
// legacy shapes, with step names in shuffled order so the decomposer
// has to find the shape.
func (g *gen) spChain(ws []float64) *instance.SPJSON {
	steps := g.spSteps(ws)
	for i := 1; i < len(steps); i++ {
		steps[i].After = []string{steps[i-1].Name}
	}
	return g.shuffled(steps)
}

func (g *gen) spFork(root float64, leaves []float64) *instance.SPJSON {
	steps := g.spSteps(append([]float64{root}, leaves...))
	for i := 1; i < len(steps); i++ {
		steps[i].After = []string{steps[0].Name}
	}
	return g.shuffled(steps)
}

func (g *gen) spForkJoin(root, join float64, leaves []float64) *instance.SPJSON {
	steps := g.spSteps(append(append([]float64{root}, leaves...), join))
	last := len(steps) - 1
	for i := 1; i < last; i++ {
		steps[i].After = []string{steps[0].Name}
		steps[last].After = append(steps[last].After, steps[i].Name)
	}
	return g.shuffled(steps)
}

// spDiamonds builds an irreducible SP graph: a chain of two diamonds.
func (g *gen) spDiamonds(ws []float64) *instance.SPJSON {
	steps := g.spSteps(ws[:6])
	n := func(i int) string { return steps[i].Name }
	steps[1].After = []string{n(0)}
	steps[2].After = []string{n(0)}
	steps[3].After = []string{n(1), n(2)}
	steps[4].After = []string{n(3)}
	steps[5].After = []string{n(3)}
	return g.shuffled(steps)
}

func (g *gen) spSteps(ws []float64) []instance.SPStepJSON {
	steps := make([]instance.SPStepJSON, len(ws))
	for i, w := range ws {
		steps[i] = instance.SPStepJSON{Name: fmt.Sprintf("t%d", i), Weight: w}
	}
	return steps
}

func (g *gen) shuffled(steps []instance.SPStepJSON) *instance.SPJSON {
	g.rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return &instance.SPJSON{Steps: steps}
}

func sum(ws []float64) float64 {
	t := 0.0
	for _, w := range ws {
		t += w
	}
	return t
}

// small draws one small instance of the given kind: every cell of the
// kind is reachable (hom/het platform and graph, dp where modelled, all
// objectives) and even the NP-hard cells solve in well under a
// millisecond.
func (g *gen) small(kind string) instance.Instance {
	var ins instance.Instance
	hom := g.rng.Intn(2) == 0
	p := 2 + g.rng.Intn(3)
	maxW := 9
	if g.rng.Intn(4) == 0 {
		maxW = 1 // homogeneous graph
	}
	var work float64
	switch kind {
	case "pipeline":
		ws := g.weights(3+g.rng.Intn(3), maxW)
		ins.Pipeline = &instance.PipelineJSON{Weights: ws}
		ins.AllowDataParallel = g.rng.Intn(2) == 0
		work = sum(ws)
	case "fork":
		ws := g.weights(2+g.rng.Intn(3), maxW)
		root := float64(1 + g.rng.Intn(maxW))
		ins.Fork = &instance.ForkJSON{Root: root, Weights: ws}
		ins.AllowDataParallel = g.rng.Intn(2) == 0
		work = root + sum(ws)
	case "fork-join":
		ws := g.weights(2+g.rng.Intn(2), maxW)
		root, join := float64(1+g.rng.Intn(maxW)), float64(1+g.rng.Intn(maxW))
		ins.ForkJoin = &instance.ForkJoinJSON{Root: root, Join: join, Weights: ws}
		ins.AllowDataParallel = g.rng.Intn(2) == 0
		work = root + join + sum(ws)
	case "sp":
		ws := g.weights(6, maxW)
		switch g.rng.Intn(4) {
		case 0:
			ins.SP = g.spChain(ws[:3+g.rng.Intn(3)])
		case 1:
			ins.SP = g.spFork(ws[0], ws[1:3+g.rng.Intn(3)])
		case 2:
			ins.SP = g.spForkJoin(ws[0], ws[1], ws[2:4+g.rng.Intn(2)])
		default:
			ins.SP = g.spDiamonds(ws)
			p = 2 + g.rng.Intn(2)
		}
		for _, st := range ins.SP.Steps {
			work += st.Weight
		}
	case "comm-pipeline":
		ws := g.weights(3+g.rng.Intn(2), maxW)
		ins.CommPipeline = &instance.CommPipelineJSON{Weights: ws, Data: g.weights(len(ws)+1, 5)}
		p = 2 + g.rng.Intn(2)
		ins.Platform.Bandwidth = g.bandwidth(p, 4, hom)
		work = sum(ws)
	default:
		ws := g.weights(2+g.rng.Intn(2), maxW)
		root := float64(1 + g.rng.Intn(maxW))
		ins.CommFork = &instance.CommForkJSON{
			Root: root, In: float64(1 + g.rng.Intn(3)), Broadcast: float64(1 + g.rng.Intn(3)),
			Weights: ws, Outs: g.weights(len(ws), 3),
		}
		p = 2 + g.rng.Intn(2)
		ins.Platform.Bandwidth = g.bandwidth(p, 4, hom)
		work = root + sum(ws)
	}
	ins.Platform.Speeds = g.speeds(p, 4, hom)
	g.objective(&ins, work)
	return ins
}

// fresh draws a polynomial instance no pool holds: a pipeline on a
// homogeneous platform with weights from a wide range, so its
// fingerprint is (almost surely) new.
func (g *gen) fresh() instance.Instance {
	ws := make([]float64, 4+g.rng.Intn(4))
	for i := range ws {
		ws[i] = float64(1 + g.rng.Intn(1_000_000))
	}
	ins := instance.Instance{
		Pipeline: &instance.PipelineJSON{Weights: ws},
		Platform: instance.PlatformJSON{Speeds: g.speeds(2+g.rng.Intn(6), 1, true)},
	}
	if g.rng.Intn(2) == 0 {
		ins.Objective = "min-period"
	} else {
		ins.Objective = "min-latency"
	}
	return ins
}

// hard draws one fresh instance of an NP-hard cell sized so that a
// serial exhaustive solve takes tens of milliseconds on a current x86
// core. The kinds rotate with i so every run covers all six.
func (g *gen) hard(i int) instance.Instance {
	var ins instance.Instance
	obj := "min-period"
	if g.rng.Intn(3) == 0 {
		obj = "min-latency"
	}
	switch kindNames[i%len(kindNames)] {
	case "pipeline":
		ins.Pipeline = &instance.PipelineJSON{Weights: g.weights(11, 20)}
		ins.Platform.Speeds = g.speeds(10, 5, false)
		ins.AllowDataParallel = true
		obj = "min-period"
	case "fork":
		ins.Fork = &instance.ForkJSON{Root: float64(1 + g.rng.Intn(20)), Weights: g.weights(5, 20)}
		ins.Platform.Speeds = g.speeds(5, 5, false)
		ins.AllowDataParallel = true
	case "fork-join":
		ins.ForkJoin = &instance.ForkJoinJSON{
			Root: float64(1 + g.rng.Intn(20)), Join: float64(1 + g.rng.Intn(20)), Weights: g.weights(4, 20),
		}
		ins.Platform.Speeds = g.speeds(5, 5, false)
		ins.AllowDataParallel = true
	case "sp":
		ws := g.weights(11, 20)
		ins.SP = g.spChain(ws[:10])
		ins.Platform.Speeds = g.speeds(10, 5, false)
		obj = "min-period"
	case "comm-pipeline":
		ws := g.weights(6, 20)
		ins.CommPipeline = &instance.CommPipelineJSON{Weights: ws, Data: g.weights(len(ws)+1, 8)}
		ins.Platform.Speeds = g.speeds(5, 5, false)
		ins.Platform.Bandwidth = g.bandwidth(5, 6, false)
	default:
		ins.CommFork = &instance.CommForkJSON{
			Root: float64(1 + g.rng.Intn(20)), In: float64(1 + g.rng.Intn(6)), Broadcast: float64(1 + g.rng.Intn(6)),
			Weights: g.weights(5, 20), Outs: g.weights(5, 6),
		}
		ins.Platform.Speeds = g.speeds(5, 5, false)
		ins.Platform.Bandwidth = g.bandwidth(5, 6, false)
	}
	ins.Objective = obj
	return ins
}

// oversized draws an NP-hard pipeline far beyond the exhaustive limits,
// to be sent with a fixed anytime budget.
func (g *gen) oversized() instance.Instance {
	return instance.Instance{
		Pipeline:          &instance.PipelineJSON{Weights: g.weights(18, 20)},
		Platform:          instance.PlatformJSON{Speeds: g.speeds(14, 5, false)},
		AllowDataParallel: true,
		Objective:         "min-period",
	}
}

// sweepable draws a mid-size instance for a Pareto sweep: a
// heterogeneous pipeline with data-parallelism, or a heterogeneous
// one-port communication pipeline.
func (g *gen) sweepable() instance.Instance {
	if g.rng.Intn(4) == 0 {
		ws := g.weights(5, 20)
		p := 5
		return instance.Instance{
			CommPipeline: &instance.CommPipelineJSON{Weights: ws, Data: g.weights(len(ws)+1, 8)},
			Platform:     instance.PlatformJSON{Speeds: g.speeds(p, 5, false), Bandwidth: g.bandwidth(p, 6, false)},
			Objective:    "min-period",
		}
	}
	return instance.Instance{
		Pipeline:          &instance.PipelineJSON{Weights: g.weights(8, 20)},
		Platform:          instance.PlatformJSON{Speeds: g.speeds(6, 5, false)},
		AllowDataParallel: true,
		Objective:         "min-period",
	}
}
