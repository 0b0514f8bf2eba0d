package runtime

import "testing"

// TestRankOfNodeBalanced pins the placement over every mesh up to 64 nodes:
// each rank owns one non-empty contiguous block, block sizes differ by at
// most one, and an even split keeps its blocks of nodes/ranks.
func TestRankOfNodeBalanced(t *testing.T) {
	for nodes := 2; nodes <= 64; nodes++ {
		for ranks := 2; ranks <= nodes; ranks++ {
			size := make([]int, ranks)
			prev := 0
			for n := 0; n < nodes; n++ {
				r := RankOfNode(n, nodes, ranks)
				// Ranks rise from 0 in steps of at most one: contiguous blocks.
				if r < prev || r > prev+1 || (n == 0 && r != 0) {
					t.Fatalf("%d nodes on %d ranks: node %d on rank %d after rank %d", nodes, ranks, n, r, prev)
				}
				if nodes%ranks == 0 && r != n/(nodes/ranks) {
					t.Errorf("%d nodes on %d ranks: node %d on rank %d, even split wants %d", nodes, ranks, n, r, n/(nodes/ranks))
				}
				size[r]++
				prev = r
			}
			if prev != ranks-1 {
				t.Fatalf("%d nodes on %d ranks: ranks %d.. own no node", nodes, ranks, prev+1)
			}
			lo, hi := size[0], size[0]
			for _, s := range size {
				lo, hi = min(lo, s), max(hi, s)
			}
			if hi-lo > 1 {
				t.Errorf("%d nodes on %d ranks: block sizes %v differ by more than one", nodes, ranks, size)
			}
		}
	}
}
