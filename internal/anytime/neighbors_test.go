package anytime

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// mutationDigest applies n seeded mutations, walking from start through
// every valid candidate, and hashes the Go-syntax form of each candidate
// (%#v tells nil slices from empty ones). The digest pins the random
// numbers each move draws and the mapping it returns.
func mutationDigest[M any](start M, n int, seed int64, mutate func(*rand.Rand, M) M, valid func(M) bool) string {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	cur := start
	for i := 0; i < n; i++ {
		cand := mutate(rng, cur)
		fmt.Fprintf(h, "%#v\n", cand)
		if valid(cand) {
			cur = cand
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMutationSequencesPinned pins the annealing neighbourhoods: fixed
// seeds applied to fixed pipeline, fork and fork-join mappings must keep
// producing the same candidate sequences, so a refactor of the moves
// cannot silently change the anytime answers the service returns.
func TestMutationSequencesPinned(t *testing.T) {
	const n = 3000
	pl := platform.New(3, 1, 2, 2, 1, 4)
	p := workflow.NewPipeline(4, 2, 7, 1, 5, 3)
	f := workflow.NewFork(3, 4, 1, 6, 2, 5)
	fj := workflow.NewForkJoin(3, 2, 4, 1, 6, 5)
	want := map[bool][3]string{
		false: {"e8612994d8ab8dae", "73677c604b91d43d", "36c3ea0c486c7519"},
		true:  {"c5b38277c9e2ad99", "5cf0bb6c41115b46", "c7b9e2b6c2a20c80"},
	}
	for _, dp := range []bool{false, true} {
		got := [3]string{
			mutationDigest(mapping.ReplicateAllPipeline(p, pl), n, 1, pipelineMutator(p, pl, dp),
				func(m mapping.PipelineMapping) bool { _, err := mapping.EvalPipeline(p, pl, m); return err == nil }),
			mutationDigest(mapping.ReplicateAllFork(f, pl), n, 2, forkMutator(f, pl, dp),
				func(m mapping.ForkMapping) bool { _, err := mapping.EvalFork(f, pl, m); return err == nil }),
			mutationDigest(mapping.ReplicateAllForkJoin(fj, pl), n, 3, forkJoinMutator(fj, pl, dp),
				func(m mapping.ForkJoinMapping) bool { _, err := mapping.EvalForkJoin(fj, pl, m); return err == nil }),
		}
		if got != want[dp] {
			t.Errorf("dp=%v: pipeline, fork, fork-join digests %q, want %q", dp, got, want[dp])
		}
	}
}
