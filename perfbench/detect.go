package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/asamap/asamap"
	"github.com/asamap/asamap/internal/dist"
	"github.com/asamap/asamap/internal/infomap"
)

// workers is the parallelism of every multi-worker configuration: detect
// workers, distributed ranks and service clients. It must not exceed
// GOMAXPROCS, or the configuration measures goroutine interleaving on
// fewer cores; such a run is refused as invalid.
const workers = 2

// detectOptions are the library defaults with the given backend, worker
// count and visitation-order seed.
func detectOptions(kind infomap.AccumKind, w int, seed uint64) asamap.Options {
	o := asamap.DefaultOptions()
	o.Kind = kind
	o.Workers = w
	o.Seed = seed
	return o
}

// membershipBytes is the byte form memberships are compared in.
func membershipBytes(m []uint32) []byte {
	b := make([]byte, 4*len(m))
	for i, x := range m {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	return b
}

// heapAllocBytes reads the cumulative heap allocation without stopping the
// world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// phase is one detect phase: an iteration runs every graph of its set once.
type phase struct {
	iters int
	spent time.Duration
}

// more reports whether the phase should run another iteration: always
// below minIters, otherwise only if one more iteration of the mean length
// so far still ends within budget.
func (p *phase) more(minIters int, budget time.Duration) bool {
	if p.iters < minIters {
		return true
	}
	return p.spent+p.spent/time.Duration(p.iters) <= budget
}

// run times one iteration.
func (p *phase) run(fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	p.spent += time.Since(t0)
	p.iters++
	return err
}

// runDetect runs the flat phase (budget flatB) and the hierarchy/distributed
// phase (budget hierB), alternating their iterations so that a disturbance
// on the shared host lands in single iterations of both phases rather than
// in the whole of one.
//
// Iteration it detects every graph of the set with visitation-order seed
// it+1. A detect's work depends on the order as much as on the graph (the
// sweep count of one hub graph ranges 16–30 over four seeds), so every call
// is a fresh (graph, order) sample, and the per-call metrics are medians
// over all calls of the run. Quality figures and per-layer counts come from
// iteration 0 (seed 1) alone, so they do not depend on how many iterations
// the time allowed.
func runDetect(ctx context.Context, flatSet, hierSet []parsed, flatB, hierB time.Duration, minIters int,
	tr *tracer, chk *checker) (*flatRun, *hierRun, error) {
	fr := &flatRun{}
	hr := &hierRun{}
	var fp, hp phase
	for {
		doF, doH := fp.more(minIters, flatB), hp.more(minIters, hierB)
		if !doF && !doH {
			break
		}
		if doF {
			if err := fp.run(func() error { return fr.iterate(ctx, flatSet, fp.iters, tr, chk) }); err != nil {
				return nil, nil, err
			}
		}
		if doH {
			if err := hp.run(func() error { return hr.iterate(ctx, hierSet, hp.iters, tr, chk) }); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := fr.finish(flatSet); err != nil {
		return nil, nil, err
	}
	return fr, hr, nil
}

// flatRun is what the flat phase measured.
type flatRun struct {
	baseline, hashgraph samples          // wall seconds per call
	allocMB             samples          // MB allocated per baseline call
	codelength          float64          // mean over the set, seed 1
	nmi                 float64          // mean over the set, seed 1
	first               []*asamap.Result // iteration 0's baseline results
	traced, untraced    samples          // iteration seconds, traced runs only
}

// iterate calls flat detect with the baseline and hashgraph backends,
// Workers=2, on every graph of the set. Both backends must give
// byte-identical memberships.
func (fr *flatRun) iterate(ctx context.Context, set []parsed, it int, tr *tracer, chk *checker) error {
	// In a traced run every other iteration goes untraced, so the tracing
	// overhead is measured inside the same run.
	t := tr
	if tr != nil && it%2 == 1 {
		t = nil
	}
	t.setIter(it)
	iterStart := time.Now()
	t.begin("bench.flat_iteration")
	seed := uint64(it) + 1
	for _, p := range set {
		var res, hg *asamap.Result
		var err error
		a0 := heapAllocBytes()
		c0 := time.Now()
		t.call("infomap.detect_baseline", func() {
			res, err = asamap.DetectCommunitiesContext(ctx, p.g, detectOptions(infomap.Baseline, workers, seed))
		})
		fr.baseline = append(fr.baseline, seconds(time.Since(c0)))
		if err != nil {
			return fmt.Errorf("baseline detect: %w", err)
		}
		fr.allocMB = append(fr.allocMB, float64(heapAllocBytes()-a0)/1e6)

		c0 = time.Now()
		t.call("infomap.detect_hashgraph", func() {
			hg, err = asamap.DetectCommunitiesContext(ctx, p.g, detectOptions(infomap.HashGraph, workers, seed))
		})
		fr.hashgraph = append(fr.hashgraph, seconds(time.Since(c0)))
		if err != nil {
			return fmt.Errorf("hashgraph detect: %w", err)
		}
		chk.expect(bytes.Equal(membershipBytes(res.Membership), membershipBytes(hg.Membership)),
			"flat: baseline and hashgraph memberships differ")
		if it == 0 {
			fr.first = append(fr.first, res)
		}
	}
	t.end()
	if tr != nil {
		if t == nil {
			fr.untraced = append(fr.untraced, seconds(time.Since(iterStart)))
		} else {
			fr.traced = append(fr.traced, seconds(time.Since(iterStart)))
		}
	}
	return nil
}

// finish computes the quality figures of iteration 0.
func (fr *flatRun) finish(set []parsed) error {
	for i, p := range set {
		nmi, err := asamap.NMI(fr.first[i].Membership, p.truth)
		if err != nil {
			return fmt.Errorf("nmi: %w", err)
		}
		fr.nmi += nmi / float64(len(set))
		fr.codelength += fr.first[i].Codelength / float64(len(set))
	}
	return nil
}

// checkRepeat is the determinism contract across repeats and worker
// counts: a 1-worker repeat of iteration 0 must give the same membership
// bytes and the same codelength as the 2-worker run.
func checkRepeat(ctx context.Context, set []parsed, want []*asamap.Result, chk *checker) error {
	for i, p := range set {
		res, err := asamap.DetectCommunitiesContext(ctx, p.g, detectOptions(infomap.HashGraph, 1, 1))
		if err != nil {
			return fmt.Errorf("1-worker detect: %w", err)
		}
		chk.expect(bytes.Equal(membershipBytes(res.Membership), membershipBytes(want[i].Membership)),
			"flat: 1-worker and 2-worker memberships differ")
		chk.expect(res.Codelength == want[i].Codelength,
			fmt.Sprintf("flat: codelength %v on repeat, %v first", res.Codelength, want[i].Codelength))
	}
	return nil
}

// hierRun is what the hierarchy/distributed phase measured.
type hierRun struct {
	hier, dist samples              // wall seconds per call
	h          []*asamap.HierResult // iteration 0's results
	d          []*dist.Result
}

// codeTolerance absorbs the last-bit rounding between the hierarchical and
// the two-level codelength formulas when the hierarchy adds no level.
const codeTolerance = 1e-9

// iterate calls hierarchical detect (baseline, Workers=2) and the
// distributed run (Ranks=2) on every graph of the set. The hierarchical
// codelength must not exceed the flat one.
func (hr *hierRun) iterate(ctx context.Context, set []parsed, it int, tr *tracer, chk *checker) error {
	tr.setIter(it)
	tr.begin("bench.hier_iteration")
	defer tr.end()
	seed := uint64(it) + 1
	for _, p := range set {
		var h *asamap.HierResult
		var d *dist.Result
		var err error
		c0 := time.Now()
		tr.call("hier.detect", func() {
			h, err = asamap.DetectCommunitiesHierarchicalContext(ctx, p.g, detectOptions(infomap.Baseline, workers, seed))
		})
		hr.hier = append(hr.hier, seconds(time.Since(c0)))
		if err != nil {
			return fmt.Errorf("hierarchical detect: %w", err)
		}
		do := dist.DefaultOptions()
		do.Ranks = workers
		do.Seed = seed
		c0 = time.Now()
		tr.call("dist.run", func() { d, err = dist.RunContext(ctx, p.g, do) })
		hr.dist = append(hr.dist, seconds(time.Since(c0)))
		if err != nil {
			return fmt.Errorf("distributed detect: %w", err)
		}
		chk.expect(h.Codelength <= h.TwoLevelCodelength+codeTolerance,
			fmt.Sprintf("hier: hierarchical codelength %v > flat %v", h.Codelength, h.TwoLevelCodelength))
		chk.expect(len(d.Membership) == p.g.N() && d.NumModules >= 1 &&
			!math.IsNaN(d.Codelength) && d.Codelength <= d.OneLevelCodelength+codeTolerance,
			"dist: malformed distributed result")
		if it == 0 {
			hr.h, hr.d = append(hr.h, h), append(hr.d, d)
		}
	}
	return nil
}
