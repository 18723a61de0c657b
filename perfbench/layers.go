package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/asamap/asamap"
	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/hashgraph"
	"github.com/asamap/asamap/internal/hashtab"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/sched"
	"github.com/asamap/asamap/internal/trace"
)

// layerRepeats is how many times a traced probe repeats a call; the probe
// reports the median.
const layerRepeats = 3

// timeMedian calls fn n times inside spans and returns the median seconds.
func timeMedian(tr *tracer, name string, n int, fn func() error) (float64, error) {
	var s samples
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		tr.call(name, func() { err = fn() })
		s = append(s, seconds(time.Since(t0)))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return s.median(), nil
}

// probeGraph measures the graph layer: parsing the flat input, canonical
// hashing, and the delta and frontier work of one service cycle.
func probeGraph(in *inputs, p parsed, tr *tracer, out map[string]float64) error {
	parseS, err := timeMedian(tr, "graph.parse", layerRepeats, func() error {
		_, err := parse(in.flat[0])
		return err
	})
	if err != nil {
		return err
	}
	out["graph.parse_s"] = parseS
	out["graph.parse_mb_s"] = float64(len(in.flat[0].text)) / 1e6 / parseS
	if out["graph.hash_s"], err = timeMedian(tr, "graph.hash", layerRepeats, func() error {
		p.g.CanonicalHash()
		return nil
	}); err != nil {
		return err
	}

	base, err := parse(in.bases[0])
	if err != nil {
		return err
	}
	n := base.g.N()
	r := rng.New(uint64(n))
	var applies, frontiers samples
	for i := 0; i < 10*layerRepeats; i++ {
		var d graph.Delta
		for j := 0; j < deltaOps; j++ {
			u := uint32(r.Intn(n))
			d.Ops = append(d.Ops, graph.DeltaEdge{Op: graph.DeltaAdd, From: u, To: (u + 1) % uint32(n), Weight: 1})
		}
		var v *graph.Graph
		t0 := time.Now()
		tr.call("graph.delta_apply", func() { v, err = d.Apply(base.g) })
		applies = append(applies, millis(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("delta apply: %w", err)
		}
		t0 = time.Now()
		tr.call("graph.frontier", func() { graph.KHopFrontier(v, d.Touched(), 2) })
		frontiers = append(frontiers, millis(time.Since(t0)))
	}
	out["graph.delta_apply_ms"] = applies.median()
	out["graph.frontier_ms"] = frontiers.median()
	return nil
}

// candidate is one (vertex, module) pair FindBestCommunity evaluates.
type candidate struct {
	v                       int
	mod                     uint32
	outOld, inOld, out, inF float64
}

// probeMapeq measures the map-equation layer on the flat input under the
// run's final partition: flow and state construction, ΔL evaluation over
// every leaf-level candidate, and contraction on a 2-worker pool.
func probeMapeq(p parsed, final []uint32, tr *tracer, out map[string]float64) error {
	var flow *mapeq.Flow
	var err error
	if out["mapeq.flow_s"], err = timeMedian(tr, "mapeq.flow", layerRepeats, func() error {
		flow, err = mapeq.NewUndirectedFlow(p.g)
		return err
	}); err != nil {
		return err
	}
	mem := append([]uint32(nil), final...)
	k := mapeq.CompactMembership(mem)
	var st *mapeq.State
	if out["mapeq.state_s"], err = timeMedian(tr, "mapeq.state", layerRepeats, func() error {
		st, err = mapeq.NewState(flow, mem, k)
		return err
	}); err != nil {
		return err
	}

	// Gather each vertex's candidate modules with their out/in flows, as
	// the kernel does, then time DeltaMove alone over all of them.
	g := p.g
	var cands []candidate
	outF := make(map[uint32]float64)
	inF := make(map[uint32]float64)
	for v := 0; v < g.N(); v++ {
		clear(outF)
		clear(inF)
		lo, _ := g.OutRange(v)
		for i, t := range g.OutNeighbors(v) {
			if int(t) != v {
				outF[mem[t]] += flow.OutFlow[lo+i]
			}
		}
		ilo, _ := g.InRange(v)
		for i, s := range g.InNeighbors(v) {
			if int(s) != v {
				inF[mem[s]] += flow.InFlow[ilo+i]
			}
		}
		old := mem[v]
		for m, f := range outF {
			if m != old {
				cands = append(cands, candidate{v: v, mod: m, outOld: outF[old], inOld: inF[old], out: f, inF: inF[m]})
			}
		}
	}
	sink := 0.0
	t0 := time.Now()
	tr.call("mapeq.delta_move", func() {
		// One view per vertex, as the kernel builds it.
		view := flow.View(0)
		for _, c := range cands {
			if c.v != view.Node {
				view = flow.View(c.v)
			}
			sink += st.DeltaMove(view, c.mod, c.outOld, c.inOld, c.out, c.inF)
		}
	})
	if len(cands) > 0 {
		out["mapeq.delta_move_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(cands))
	}
	out["mapeq.candidates"] = float64(len(cands))
	if sink != sink {
		return fmt.Errorf("mapeq: DeltaMove returned NaN")
	}

	pool := sched.NewPool(workers)
	defer pool.Close()
	out["mapeq.contract_s"], err = timeMedian(tr, "mapeq.contract", layerRepeats, func() error {
		_, err := flow.ContractParallel(mem, k, pool)
		return err
	})
	return err
}

// newBackend builds one accumulator the way infomap does: sized at the
// graph's max degree.
func newBackend(name string, hint int) (accum.Accumulator, error) {
	switch name {
	case "softhash":
		return hashtab.New(hint), nil
	case "hashgraph":
		return hashgraph.New(hint), nil
	case "asa":
		return asa.New(asa.DefaultConfig())
	case "gomap":
		return accum.NewMap(hint), nil
	}
	return nil, fmt.Errorf("unknown backend %q", name)
}

// clockRead is the cost of one time.Now read. Every per-operation
// accumulator time below includes one read per timed interval; it is
// reported beside them so that share can be read off, and is the same for
// every backend.
func clockRead() time.Duration {
	const n = 1 << 14
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return time.Since(t0) / n
}

// probeAccum replays every leaf vertex's accumulator session on each
// backend: Reset, one Accumulate per neighbour keyed by the final
// partition, Gather, and a Lookup of every gathered key.
func probeAccum(p parsed, final []uint32, tr *tracer, out map[string]float64) error {
	g := p.g
	flow, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		return err
	}
	out["accum.clock_ns"] = float64(clockRead().Nanoseconds())
	var buf []accum.KV
	for _, name := range accumBackends {
		a, err := newBackend(name, g.MaxDegree())
		if err != nil {
			return err
		}
		var reset, acc, gather, lookup time.Duration
		var sessions, lookups uint64
		tr.call("accum."+name+".replay", func() {
			for v := 0; v < g.N(); v++ {
				lo, _ := g.OutRange(v)
				nb := g.OutNeighbors(v)
				t0 := time.Now()
				a.Reset()
				t1 := time.Now()
				for i, t := range nb {
					if int(t) != v {
						a.Accumulate(final[t], flow.OutFlow[lo+i])
					}
				}
				t2 := time.Now()
				buf = a.Gather(buf[:0])
				t3 := time.Now()
				for _, kv := range buf {
					a.Lookup(kv.Key)
				}
				t4 := time.Now()
				reset += t1.Sub(t0)
				acc += t2.Sub(t1)
				gather += t3.Sub(t2)
				lookup += t4.Sub(t3)
				sessions++
				lookups += uint64(len(buf))
			}
		})
		s := a.Stats()
		pre := "accum." + name + "."
		perOp := func(d time.Duration, n uint64) float64 {
			if n == 0 {
				return 0
			}
			return float64(d.Nanoseconds()) / float64(n)
		}
		out[pre+"session_ns"] = perOp(reset+acc+gather, sessions)
		out[pre+"reset_ns"] = perOp(reset, sessions)
		out[pre+"accumulate_ns"] = perOp(acc, s.Accumulates)
		out[pre+"gather_ns"] = perOp(gather, sessions)
		out[pre+"lookup_ns"] = perOp(lookup, lookups)
		out[pre+"hit_ratio"] = ratio(float64(s.Hits), float64(s.Accumulates))
		out[pre+"chain_hops_per_op"] = ratio(float64(s.ChainHops), float64(s.Accumulates+s.Lookups))
		out[pre+"rehashes"] = float64(s.Rehashes)
		out[pre+"evictions"] = float64(s.Evictions)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeInfomap sums the counts and kernel times of the seed-1 baseline
// detects of the set, and re-runs them at Workers=1 for the serial time,
// the parallel efficiency and the perf model's calibration residual.
func probeInfomap(ctx context.Context, set []parsed, results []*asamap.Result, tr *tracer, out map[string]float64) error {
	var w perf.KernelWork
	var fbc, update, convert, elapsed, busy, imbalance float64
	for _, res := range results {
		w.Add(res.TotalWork())
		out["infomap.levels"] += float64(res.Levels)
		out["infomap.sweeps"] += float64(res.Sweeps)
		out["infomap.moves"] += float64(res.Moves)
		out["sched.steals"] += float64(res.Steals)
		bd := res.Breakdown
		fbc += bd.Get(trace.KernelFindBestCommunity).Seconds()
		update += bd.Get(trace.KernelUpdateMembers).Seconds()
		convert += bd.Get(trace.KernelConvert2SuperNode).Seconds()
		elapsed += res.Elapsed.Seconds()
		// Weight each graph's imbalance by its FindBestCommunity time.
		f := bd.Get(trace.KernelFindBestCommunity).Seconds()
		imbalance += res.MeanImbalance() * f
		busy += f
	}
	out["infomap.candidates_evaluated"] = float64(w.CandidatesEvaluated)
	out["infomap.vertices_processed"] = float64(w.VerticesProcessed)
	out["infomap.move_yield"] = ratio(out["infomap.moves"], float64(w.VerticesProcessed))
	out["infomap.fbc_s"] = fbc
	out["infomap.update_members_s"] = update
	out["infomap.convert_s"] = convert
	out["infomap.serial_share"] = ratio(update+convert, elapsed)
	out["sched.imbalance"] = ratio(imbalance, busy)

	// Dispatch cost: one sweep's block count over empty blocks.
	blocks := 1
	if log := results[0].SweepLog; len(log) > 0 && log[0].Sched.Blocks > 0 {
		blocks = log[0].Sched.Blocks
	}
	pool := sched.NewPool(workers)
	bounds := sched.UniformBounds(set[0].g.N(), blocks)
	noop := func(worker, block, lo, hi int) error { return nil }
	var disp samples
	var derr error
	tr.call("sched.dispatch", func() {
		for i := 0; i < 1000 && derr == nil; i++ {
			t0 := time.Now()
			_, derr = pool.Dispatch(bounds, sched.Steal, noop)
			disp = append(disp, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	})
	pool.Close()
	if derr != nil {
		return fmt.Errorf("dispatch: %w", derr)
	}
	out["sched.dispatch_us"] = disp.median()

	// Serial run: the same detects at Workers=1. Model residual: modeled
	// FindBestCommunity seconds on the paper's Baseline machine, from the
	// serial runs' counters, over measured.
	model := perf.DefaultModel(perf.Baseline())
	var serialS, serialElapsed, modeled, measured float64
	for _, p := range set {
		runtime.GC()
		var serial *asamap.Result
		var err error
		t0 := time.Now()
		tr.call("infomap.detect_serial", func() {
			serial, err = asamap.DetectCommunitiesContext(ctx, p.g, detectOptions(infomap.Baseline, 1, 1))
		})
		serialS += seconds(time.Since(t0))
		if err != nil {
			return fmt.Errorf("serial detect: %w", err)
		}
		serialElapsed += serial.Elapsed.Seconds()
		c := model.HashCost(serial.TotalStats())
		c.Add(model.KernelCost(serial.TotalWork()))
		modeled += c.Seconds(perf.Baseline())
		measured += serial.Breakdown.Get(trace.KernelFindBestCommunity).Seconds()
	}
	out["sched.serial_s"] = serialS
	// Both sides from the runs' own Elapsed, so the ratio compares like
	// with like.
	out["sched.parallel_eff"] = ratio(serialElapsed, workers*elapsed)
	out["perf.model_residual"] = ratio(modeled, measured) - 1
	return nil
}

// probeRuntime measures GC work per baseline detect, as the mean over the
// set.
func probeRuntime(ctx context.Context, set []parsed, tr *tracer, out map[string]float64) error {
	for _, p := range set {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		tr.call("infomap.detect_gc", func() {
			_, err = asamap.DetectCommunitiesContext(ctx, p.g, detectOptions(infomap.Baseline, workers, 1))
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		k := float64(len(set))
		out["runtime.gc_cycles"] += float64(after.NumGC-before.NumGC) / k
		out["runtime.gc_pause_ms"] += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / k
	}
	return nil
}
