package spdecomp

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Byte-identity corpora for the prepared and sharded SP block search.
// Replay diffs recorded costs with ==, so costs are compared exactly and
// blocks with reflect.DeepEqual: memo hits, scratch reuse, and the
// restricted-growth sharded scan must all reproduce the serial one-shot
// result bit for bit.

func identityGoals(rng *rand.Rand) []mapping.Goal {
	return []mapping.Goal{
		{MinimizePeriod: true},
		{},
		{MinimizePeriod: true, PeriodCap: float64(2 + rng.Intn(9))},
		{LatencyCap: float64(5 + rng.Intn(20))},
	}
}

// TestSPParallelSerialIdentity: the sharded block search must be
// byte-identical to the serial scan on every goal, at every worker count.
func TestSPParallelSerialIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 25; trial++ {
		g := workflow.RandomSP(rng, 1+rng.Intn(8), 9, 4, 3)
		pl := platform.Random(rng, 2+rng.Intn(3), 5)
		for _, goal := range identityGoals(rng) {
			serial, err := NewPrepared(g, pl)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewPrepared(g, pl)
			if err != nil {
				t.Fatal(err)
			}
			par.SetParallelism(2 + rng.Intn(3))
			sb, sc, sok, err := serial.Exhaustive(context.Background(), goal)
			if err != nil {
				t.Fatal(err)
			}
			pb, pc, pok, err := par.Exhaustive(context.Background(), goal)
			if err != nil {
				t.Fatal(err)
			}
			if sok != pok || sc != pc || !reflect.DeepEqual(sb, pb) {
				t.Fatalf("trial %d goal %+v: parallel diverges: %v %v %v vs %v %v %v\n%s",
					trial, goal, pb, pc, pok, sb, sc, sok, g.Render())
			}
		}
	}
}

// TestSPPreparedIdentity: prepared solves — including memo hits on the
// second pass and the cached heuristic candidate set — must equal fresh
// one-shot Exhaustive calls.
func TestSPPreparedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 25; trial++ {
		g := workflow.RandomSP(rng, 1+rng.Intn(8), 9, 4, 3)
		pl := platform.Random(rng, 2+rng.Intn(3), 5)
		pp, err := NewPrepared(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		goals := identityGoals(rng)
		for pass := 0; pass < 2; pass++ {
			for _, goal := range goals {
				gb, gc, gok, err := pp.Exhaustive(context.Background(), goal)
				if err != nil {
					t.Fatal(err)
				}
				wb, wc, wok, err := Exhaustive(context.Background(), g, pl, goal)
				if err != nil {
					t.Fatal(err)
				}
				if gok != wok || gc != wc || !reflect.DeepEqual(gb, wb) {
					t.Fatalf("trial %d pass %d goal %+v: prepared diverges: %v %v %v vs %v %v %v",
						trial, pass, goal, gb, gc, gok, wb, wc, wok)
				}
			}
		}
	}
}

// TestSPPreparedHeuristicIdentity: the cached heuristic candidate set must
// pick the same winner as a fresh Heuristics scan, on both passes.
func TestSPPreparedHeuristicIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		g := workflow.RandomSP(rng, 1+rng.Intn(10), 9, 4, 3)
		pl := platform.Random(rng, 1+rng.Intn(5), 5)
		pp, err := NewPrepared(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		for _, goal := range identityGoals(rng) {
			want, wantOK := Best(Heuristics(g, pl), goal)
			for pass := 0; pass < 2; pass++ {
				got, ok := pp.BestHeuristic(goal)
				if ok != wantOK {
					t.Fatalf("trial %d goal %+v: ok=%v want %v", trial, goal, ok, wantOK)
				}
				if !ok {
					continue
				}
				if got.Cost != want.Cost || !reflect.DeepEqual(got.Blocks, want.Blocks) {
					t.Fatalf("trial %d pass %d goal %+v: heuristic diverges: %v %v vs %v %v",
						trial, pass, goal, got.Blocks, got.Cost, want.Blocks, want.Cost)
				}
			}
		}
	}
}
