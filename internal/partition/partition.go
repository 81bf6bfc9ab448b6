// Package partition is the search skeleton shared by every exhaustive
// partition search of the repository: the NP-hard cells of the paper
// (heterogeneous forks and fork-joins with replication and
// data-parallelism, the SP block model and the one-port comm fork) are
// all solved by enumerating the set partitions of the stages crossed
// with processor assignments of the blocks. The package holds the parts
// that are the same everywhere:
//
//   - the restricted-growth set-partition enumerator, with an entry that
//     starts from a fixed prefix (From);
//   - prefix sharding for the ordered parallel scan of
//     internal/incumbent (Shards, Plan): the shards of consecutive
//     prefixes tile the serial enumeration order;
//   - injective processor assignment of the blocks (Injective).
//
// Each solver supplies only its own cost and its own mapping.
package partition

// From enumerates the set partitions of items {0,..,m-1} into at most
// maxBlocks blocks, as restricted growth strings, restricted to the
// completions of a fixed prefix: assign[:start] already holds start
// valid decisions naming used blocks, and positions start..m-1 are
// filled in the exact order the full enumeration visits them. Each
// partition is passed as the string (item -> block index, blocks
// numbered in order of first appearance) and its block count; the
// visitor must not retain the slice, and returns false to abort. From
// reports whether the enumeration ran to completion. assign is the
// scratch the enumeration writes into (len >= m).
func From(assign []int, m, maxBlocks, start, used int, visit func(assign []int, blocks int) bool) bool {
	if m == 0 {
		return true
	}
	assign = assign[:m]
	var rec func(i, used int) bool
	rec = func(i, used int) bool {
		if i == m {
			return visit(assign, used)
		}
		limit := min(used, maxBlocks-1)
		for b := 0; b <= limit; b++ {
			assign[i] = b
			next := used
			if b == used {
				next++
			}
			if !rec(i+1, next) {
				return false
			}
		}
		return true
	}
	return rec(start, used)
}

// Prefix is one fixed restricted-growth prefix: the root of one shard's
// enumeration subtree.
type Prefix struct {
	Assign []int // the first len(Assign) partition decisions
	Used   int   // blocks named by the prefix
}

// shardTarget scales the shard count per worker: enough shards that
// uneven subtree sizes even out through the claim counter, few enough
// that per-shard setup stays negligible against the subtree scans.
const shardTarget = 8

// whole is the single shard of a serial scan: the empty prefix.
var whole = []Prefix{{}}

// Plan returns the shards of an ordered scan of the partitions of items
// items into at most maxBlocks blocks on the given worker count: the
// whole space as one shard for a serial scan, Shards otherwise. The
// returned slice is shared and must not be modified.
func Plan(items, maxBlocks, workers int) []Prefix {
	if workers <= 1 {
		return whole
	}
	return Shards(items, maxBlocks, shardTarget*workers)
}

// Shards fixes the first k partition decisions, with k the smallest
// prefix length whose shard count reaches target (or the full item
// count, when the whole space is small). Prefixes are emitted in
// enumeration order: every partition under shard i precedes every
// partition under shard j in the serial enumeration when i < j — the
// property the ordered scan's fold relies on.
func Shards(items, maxBlocks, target int) []Prefix {
	if items == 0 {
		return whole
	}
	var shards []Prefix
	scratch := make([]int, items)
	for k := 1; ; k++ {
		shards = shards[:0]
		From(scratch, k, maxBlocks, 0, 0, func(assign []int, used int) bool {
			shards = append(shards, Prefix{Assign: append([]int(nil), assign...), Used: used})
			return true
		})
		if len(shards) >= target || k >= items {
			return shards
		}
	}
}

// Injective enumerates the injective assignments of blocks 0..k-1 to
// processors 0..p-1 (p = len(used)) in lexicographic order, writing the
// processor of block b to procOf[b]. used is scratch that must be all
// false on entry; it is all false again on return. visit returns false
// to abort; Injective reports whether the enumeration ran to completion.
func Injective(procOf []int, used []bool, k int, visit func() bool) bool {
	var rec func(b int) bool
	rec = func(b int) bool {
		if b == k {
			return visit()
		}
		for q := range used {
			if used[q] {
				continue
			}
			used[q] = true
			procOf[b] = q
			ok := rec(b + 1)
			used[q] = false
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0)
}
