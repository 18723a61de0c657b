package dist

import (
	"testing"

	"github.com/asamap/asamap/internal/graph"
)

// TestTieGoesToSmallerModule: the rank sweep shares the flat engine's tie
// rule. Vertex 8 bridges two identical unit-weight 4-cliques, A = {0,5,6,7}
// and B = {1,2,3,4}, with one weight-2 edge each (8–5 and 8–1), so joining
// either is an exact ΔL tie. Seeded with the cliques as modules, A holds the
// smaller module ID although B's vertex comes first in 8's adjacency.
func TestTieGoesToSmallerModule(t *testing.T) {
	b := graph.NewBuilder(9, false)
	for _, clique := range [][]uint32{{0, 5, 6, 7}, {1, 2, 3, 4}} {
		for i := range clique {
			for j := i + 1; j < len(clique); j++ {
				if err := b.AddEdge(clique[i], clique[j], 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, e := range [][2]uint32{{8, 5}, {8, 1}} {
		if err := b.AddEdge(e[0], e[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	opt := DefaultOptions()
	opt.Ranks = 1
	opt.WarmStart = []uint32{0, 1, 1, 1, 1, 0, 0, 0, 2}
	res, err := Run(b.Build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Membership
	if m[8] != m[0] || m[8] == m[1] {
		t.Fatalf("bridge joined the wrong clique: %v", m)
	}
}
