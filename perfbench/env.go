package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// graphRecord is the shape of one workload graph, with its CSR size against
// the last-level cache.
type graphRecord struct {
	Name      string  `json:"name"`
	N         int     `json:"n"`
	Arcs      int     `json:"arcs"`
	MaxDegree int     `json:"max_degree"`
	CSRBytes  int64   `json:"csr_bytes"`
	CSRvsL3   float64 `json:"csr_vs_l3,omitempty"`
}

// envRecord is printed and stored with every result set.
type envRecord struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"nproc"`
	CPUModel   string        `json:"cpu_model"`
	L3Bytes    int64         `json:"l3_bytes"`
	Workers    int           `json:"workers"`
	Graphs     []graphRecord `json:"graphs"`
}

func environment(in *inputs, flat, hier []parsed) *envRecord {
	e := &envRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		L3Bytes:    l3Bytes(),
		Workers:    workers,
	}
	add := func(name string, p parsed) {
		g := p.g
		// Undirected graphs share one CSR for both directions: offsets
		// (int64), targets (uint32) and weights (float64).
		csr := 8*int64(g.N()+1) + 12*int64(g.M())
		r := graphRecord{Name: name, N: g.N(), Arcs: g.M(), MaxDegree: g.MaxDegree(), CSRBytes: csr}
		if e.L3Bytes > 0 {
			r.CSRvsL3 = float64(csr) / float64(e.L3Bytes)
		}
		e.Graphs = append(e.Graphs, r)
	}
	for i, p := range flat {
		add(in.flat[i].name, p)
	}
	if in.hier[0].name != in.flat[0].name {
		for i, p := range hier {
			add(in.hier[i].name, p)
		}
	}
	return e
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" when
// unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// l3Bytes reads the size of cpu0's level-3 cache from sysfs (0 when
// unavailable).
func l3Bytes() int64 {
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		lvl, err := os.ReadFile(dir + "level")
		if err != nil || strings.TrimSpace(string(lvl)) != "3" {
			continue
		}
		size, err := os.ReadFile(dir + "size")
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(size))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}
