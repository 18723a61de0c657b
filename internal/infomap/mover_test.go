package infomap

import (
	"context"
	"errors"
	"testing"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/rng"
)

// tieGraph returns a symmetric graph in which vertex 8 is an exact ΔL tie:
// it bridges two identical unit-weight 4-cliques, A = {0,5,6,7} and
// B = {1,2,3,4}, with one weight-2 edge each (8–5 and 8–1), heavy enough
// that joining either clique shortens the code. The cliques interleave so that B's
// vertex comes first in 8's adjacency while A — holding vertex 0 — gets the
// smaller module ID under any first-seen compaction: a first-seen tie rule
// would join B, the smaller-ID rule joins A.
func tieGraph(t *testing.T) *graph.Graph {
	t.Helper()
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
	return b.Build()
}

// tieWarmStart seeds the cliques as modules and vertex 8 as a singleton.
var tieWarmStart = []uint32{0, 1, 1, 1, 1, 0, 0, 0, 2}

// TestFlatTieGoesToSmallerModule: a flat run that re-optimizes only the
// bridge vertex must resolve its exact tie toward the smaller module ID.
func TestFlatTieGoesToSmallerModule(t *testing.T) {
	g := tieGraph(t)
	for _, kind := range []AccumKind{Baseline, HashGraph, GoMap} {
		opt := DefaultOptions()
		opt.Kind = kind
		opt.WarmStart = tieWarmStart
		opt.FrontierSeeds = []uint32{8}
		opt.FrontierHops = 0
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Membership
		if m[8] != m[0] || m[8] == m[1] {
			t.Fatalf("%v: bridge joined the wrong clique: %v", kind, m)
		}
	}
}

// TestSubmoduleTieGoesToSmallerModule: in a submodule sweep over the path
// 0–1–2 that visits the middle vertex first, both neighbors are singleton
// modules with identical statistics; the sweep must join module 0. Raw
// module IDs survive optimizeSubmodule, so vertex 1 ends in module 0
// whatever vertex 2 does afterwards.
func TestSubmoduleTieGoesToSmallerModule(t *testing.T) {
	b := graph.NewBuilder(3, false)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	f, err := mapeq.NewUndirectedFlow(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(1)
	for rng.New(seed).Perm(3)[0] != 1 {
		seed++
	}
	opt := DefaultOptions()
	mv, err := NewMover(opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	mem, _, err := optimizeSubmodule(context.Background(), f, 0, opt, mv, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if mem[1] != 0 {
		t.Fatalf("middle vertex joined module %d, want 0 (membership %v)", mem[1], mem)
	}
}

// TestSplitRecursivelyCanceled: the split phase observes cancellation.
func TestSplitRecursivelyCanceled(t *testing.T) {
	g, _, _ := nestedGraph(t, 2, 2, 5)
	f, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	node := &HierNode{Vertices: make([]int, g.N()), Flow: 1}
	for v := range node.Vertices {
		node.Vertices[v] = v
	}
	opt := DefaultOptions()
	mv, err := NewMover(opt, g.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := splitRecursively(ctx, f, node, opt, mv, rng.New(1), opt.MaxLevels); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestMoverBestAllocFree: once its buffers have grown, the evaluator
// allocates nothing per vertex.
func TestMoverBestAllocFree(t *testing.T) {
	g, _, _ := nestedGraph(t, 3, 3, 6)
	f, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]uint32, g.N())
	for v := range mem {
		mem[v] = uint32(v / 3)
	}
	k := mapeq.CompactMembership(mem)
	st, err := mapeq.NewState(f, mem, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []AccumKind{Baseline, HashGraph} {
		opt := DefaultOptions()
		opt.Kind = kind
		mv, err := NewMover(opt, g.MaxDegree())
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for v := 0; v < g.N(); v++ {
				mv.Best(st, f, v)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: Best allocated %.1f times per sweep, want 0", kind, allocs)
		}
	}
}
