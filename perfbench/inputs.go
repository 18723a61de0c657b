package main

import (
	"bytes"
	"fmt"

	"github.com/asamap/asamap"
	"github.com/asamap/asamap/internal/dataset"
	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/rng"
)

// scale sizes a workload's inputs. The self-test runs the same code on a
// tiny scale.
type scale struct {
	PokecScale  int // soc-Pokec replica divisor
	PokecGraphs int // replicas in the hub set
	FlatN       int // vertices of each degree-capped LFR graph
	FlatMaxDeg  int // their degree cap
	FlatGraphs  int // graphs in the degree-capped set
	ServeN      int // vertices of each service graph
	ServeBases  int // base graphs uploaded at service set-up
	MinIters    int // minimum iterations of each detect phase
	MinCold     int // minimum samples per service class (cold needs p90)
	MinOther    int
	SetupRepeat int // set-ups per run; setup_s is their median
}

// fullScale is the benchmark's scale. Each detect workload runs a set of
// graphs rather than one, and each iteration a new visitation order: detect
// time depends on the sweep count and the hub degrees, which vary with the
// graph and the order, and many (graph, order) samples average that out.
// The hub set is four soc-Pokec replicas at 1/64 scale (≈25.5k vertices,
// max degree ≈3–4k each); the capped set is eight 6k-vertex LFR graphs.
var fullScale = scale{
	PokecScale: 64, PokecGraphs: 4, FlatN: 6000, FlatMaxDeg: 50, FlatGraphs: 8, ServeN: 2000, ServeBases: 8,
	MinIters: 3, MinCold: 10 * minBeyond, MinOther: 2 * minBeyond, SetupRepeat: 3,
}

// workload fixes the inputs of each phase and the share of --seconds each
// phase measures for.
type workload struct {
	name      string
	why       string
	flatShare float64 // flat detect, baseline and hashgraph backends
	hierShare float64 // hierarchical and distributed detect
	// The service loop gets the rest.
}

var workloads = map[string]workload{
	wlHubs: {name: wlHubs, flatShare: 0.68, hierShare: 0.08,
		why: "soc-Pokec replicas with hubs of degree ~3-4k: accumulator sessions dominate, so Reset and backend changes show here"},
	wlFlat: {name: wlFlat, flatShare: 0.25, hierShare: 0.45,
		why: "LFR with degree capped at 50: accumulator bypassed, serial commit/contract and the hier/dist move loops dominate"},
	wlServe: {name: wlServe, flatShare: 0.12, hierShare: 0.18,
		why: "closed loop of 2 clients over HTTP: cold misses, warm delta detects, cache hits and uploads on 2k-vertex LFR graphs"},
}

// input is one generated graph: the edge-list bytes the program parses, and
// the planted communities indexed by the bytes' vertex labels.
type input struct {
	name  string
	text  []byte
	truth []uint32
}

func render(name string, g *graph.Graph, truth []uint32) (input, error) {
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		return input{}, fmt.Errorf("render %s: %w", name, err)
	}
	return input{name: name, text: buf.Bytes(), truth: truth}, nil
}

// parsed is an input after the program has read it.
type parsed struct {
	g     *asamap.Graph
	truth []uint32 // planted module of each parsed vertex
}

// parseSet parses every input of a set.
func parseSet(set []input) ([]parsed, error) {
	out := make([]parsed, len(set))
	for i, in := range set {
		p, err := parse(in)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func parse(in input) (parsed, error) {
	g, labels, err := asamap.ReadGraph(bytes.NewReader(in.text), false)
	if err != nil {
		return parsed{}, fmt.Errorf("parse %s: %w", in.name, err)
	}
	truth := make([]uint32, g.N())
	for v, l := range labels {
		if l >= uint64(len(in.truth)) {
			return parsed{}, fmt.Errorf("parse %s: label %d outside the generated graph", in.name, l)
		}
		truth[v] = in.truth[l]
	}
	return parsed{g: g, truth: truth}, nil
}

// inputs are everything a run feeds the program, made from --seed alone.
type inputs struct {
	flat  []input // flat-detect graph set
	hier  []input // hierarchical/distributed detect graph set
	bases []input // service base graphs
}

func makeInputs(wl workload, sc scale, seed uint64) (*inputs, error) {
	in := &inputs{}
	for i := 0; i < sc.ServeBases; i++ {
		p := gen.DefaultLFR(sc.ServeN, 0.3)
		g, truth, err := gen.LFR(p, rng.New(rng.Hash64(seed)+uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("service graph %d: %w", i, err)
		}
		b, err := render(fmt.Sprintf("serve-base-%d", i), g, truth)
		if err != nil {
			return nil, err
		}
		in.bases = append(in.bases, b)
	}
	switch wl.name {
	case wlHubs:
		spec, err := dataset.ByName("soc-Pokec")
		if err != nil {
			return nil, err
		}
		for i := 0; i < sc.PokecGraphs; i++ {
			g, truth, err := spec.GenerateWithTruth(sc.PokecScale, rng.Hash64(seed)+uint64(i))
			if err != nil {
				return nil, fmt.Errorf("soc-Pokec replica: %w", err)
			}
			b, err := render(fmt.Sprintf("soc-Pokec-%d", i), g, truth)
			if err != nil {
				return nil, err
			}
			in.flat = append(in.flat, b)
		}
		// The hierarchical and distributed runs take the service graphs
		// here: the hub graphs are for the accumulator.
		in.hier = in.bases
	case wlFlat:
		for i := 0; i < sc.FlatGraphs; i++ {
			p := gen.DefaultLFR(sc.FlatN, 0.4)
			p.MaxDegree = sc.FlatMaxDeg
			g, truth, err := gen.LFR(p, rng.New(rng.Hash64(^seed)+uint64(i)))
			if err != nil {
				return nil, fmt.Errorf("capped LFR: %w", err)
			}
			b, err := render(fmt.Sprintf("lfr-capped-%d", i), g, truth)
			if err != nil {
				return nil, err
			}
			in.flat = append(in.flat, b)
		}
		in.hier = in.flat
	case wlServe:
		in.flat, in.hier = in.bases, in.bases
	default:
		return nil, fmt.Errorf("unknown workload %q", wl.name)
	}
	return in, nil
}
