package partition

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repliflow/internal/incumbent"
)

// collect returns the restricted-growth strings From visits under a
// prefix, in visit order.
func collect(m, maxBlocks int, pre Prefix) []string {
	var out []string
	assign := make([]int, m)
	copy(assign, pre.Assign)
	From(assign, m, maxBlocks, len(pre.Assign), pre.Used, func(a []int, _ int) bool {
		out = append(out, fmt.Sprint(a))
		return true
	})
	return out
}

// TestPartitionsStirlingCount: the partitions of n items into at most k
// blocks number the sum of the Stirling numbers of the second kind
// S(n, b) for b <= k, and every visited string is a valid
// restricted-growth string with the reported block count.
func TestPartitionsStirlingCount(t *testing.T) {
	const maxN = 8
	var s [maxN + 1][maxN + 1]int // s[n][k] = S(n, k)
	s[0][0] = 1
	for n := 1; n <= maxN; n++ {
		for k := 1; k <= n; k++ {
			s[n][k] = k*s[n-1][k] + s[n-1][k-1]
		}
	}
	for n := 1; n <= maxN; n++ {
		for k := 1; k <= n+1; k++ {
			want := 0
			for b := 1; b <= min(k, n); b++ {
				want += s[n][b]
			}
			got := 0
			From(make([]int, n), n, k, 0, 0, func(a []int, blocks int) bool {
				got++
				used := 0
				for _, b := range a {
					if b > used || b >= k {
						t.Fatalf("n=%d k=%d: %v is not a restricted-growth string into %d blocks", n, k, a, k)
					}
					if b == used {
						used++
					}
				}
				if used != blocks {
					t.Fatalf("n=%d k=%d: %v reported %d blocks, has %d", n, k, a, blocks, used)
				}
				return true
			})
			if got != want {
				t.Errorf("partitions of %d items into <= %d blocks = %d, want %d", n, k, got, want)
			}
		}
	}
}

// TestInjectiveCount: the injective assignments of b blocks onto p
// processors number p!/(p-b)!, arrive in lexicographic order, and leave
// the used marks clear.
func TestInjectiveCount(t *testing.T) {
	for p := 1; p <= 6; p++ {
		for b := 0; b <= p; b++ {
			want := 1
			for i := 0; i < b; i++ {
				want *= p - i
			}
			used := make([]bool, p)
			procOf := make([]int, b)
			var prev []int
			got := 0
			Injective(procOf, used, b, func() bool {
				got++
				seen := make(map[int]bool)
				for _, q := range procOf {
					if seen[q] {
						t.Fatalf("p=%d b=%d: %v assigns a processor twice", p, b, procOf)
					}
					seen[q] = true
				}
				if prev != nil && fmt.Sprint(prev) >= fmt.Sprint(procOf) {
					t.Fatalf("p=%d b=%d: %v does not follow %v", p, b, procOf, prev)
				}
				prev = append(prev[:0], procOf...)
				return true
			})
			if got != want {
				t.Errorf("injective assignments of %d blocks onto %d processors = %d, want %d", b, p, got, want)
			}
			for q, u := range used {
				if u {
					t.Fatalf("p=%d b=%d: processor %d left marked", p, b, q)
				}
			}
		}
	}
}

// TestParallelShardsTileEnumeration pins the foundation the ordered
// scan's fold rests on: the shards of Shards, scanned in shard index
// order, visit exactly the serial enumeration's partition sequence.
func TestParallelShardsTileEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(7)
		maxBlocks := 1 + rng.Intn(5)
		serial := collect(m, maxBlocks, Prefix{})
		var sharded []string
		for _, sh := range Shards(m, maxBlocks, 2+rng.Intn(30)) {
			sharded = append(sharded, collect(m, maxBlocks, sh)...)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("trial %d: shards of %d items into <= %d blocks do not tile the serial enumeration (%d serial vs %d sharded visits)",
				trial, m, maxBlocks, len(serial), len(sharded))
		}
	}
}

// scanPartitions runs the ordered scan over the partitions of m items
// into at most maxBlocks blocks with the given per-partition cost
// (negative = infeasible), returning the winning string and its cost.
func scanPartitions(ctx context.Context, m, maxBlocks, workers int, lb float64, cost func([]int) float64) (string, bool, error) {
	shards := Plan(m, maxBlocks, workers)
	assigns := make([][]int, workers)
	type best struct {
		key string
		c   float64
	}
	res, found, err := incumbent.Scan(ctx, workers, len(shards), lb,
		func(ctx context.Context, w int, sh *incumbent.Shard) (best, error) {
			if assigns[w] == nil {
				assigns[w] = make([]int, m)
			}
			pre := shards[sh.Index()]
			copy(assigns[w], pre.Assign)
			var b best
			var err error
			visits := 0
			From(assigns[w], m, maxBlocks, len(pre.Assign), pre.Used, func(a []int, _ int) bool {
				if visits++; visits%1024 == 0 {
					if err = ctx.Err(); err != nil {
						return false
					}
				}
				c := cost(a)
				if c < 0 {
					return true
				}
				install, stop := sh.Offer(c)
				if install {
					b = best{fmt.Sprint(a), c}
				}
				return !stop
			})
			return b, err
		})
	return fmt.Sprint(res.key, " ", res.c), found, err
}

// TestParallelScanIdentity: the ordered scan returns the serial scan's
// winner at every worker count, with heavy ties (a few distinct costs)
// and with the lower-bound stop engaged.
func TestParallelScanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ctx := context.Background()
	for trial := 0; trial < 30; trial++ {
		m, maxBlocks := 2+rng.Intn(6), 1+rng.Intn(5)
		costs := map[string]float64{}
		levels := 1 + rng.Intn(4)
		cost := func(a []int) float64 {
			k := fmt.Sprint(a)
			c, ok := costs[k]
			if !ok {
				c = float64(rng.Intn(levels + 1)) // 0 = infeasible
				if c == 0 {
					c = -1
				}
				costs[k] = c
			}
			return c
		}
		// Draw every cost up front so concurrent scans only read the map,
		// and take the optimum as the certified lower bound half the time
		// (lb must be a true lower bound; 0 disables the stop).
		lb := 0.0
		withLB := rng.Intn(2) == 0
		From(make([]int, m), m, maxBlocks, 0, 0, func(a []int, _ int) bool {
			if c := cost(a); withLB && c > 0 && (lb == 0 || c < lb) {
				lb = c
			}
			return true
		})
		want, wantOK, err := scanPartitions(ctx, m, maxBlocks, 1, lb, cost)
		if err != nil {
			t.Fatal(err)
		}
		for workers := 2; workers <= 4; workers++ {
			got, gotOK, err := scanPartitions(ctx, m, maxBlocks, workers, lb, cost)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("trial %d workers=%d lb=%v: parallel (%s, %v) != serial (%s, %v)", trial, workers, lb, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestParallelScanCancellationPrompt: cancelling the context of an
// ordered scan must stop every worker promptly — the scan of a space
// whose full enumeration takes seconds returns ctx.Err() in a small
// fraction of that. Every candidate is infeasible, so neither the shared
// bound nor the lower bound can end the scan on its own.
func TestParallelScanCancellationPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, found, err := scanPartitions(ctx, 15, 15, 4, 0, func([]int) float64 { return -1 })
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned (found=%v, err=%v), want context.Canceled", found, err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("scan took %v to honor cancellation", elapsed)
	}
}
