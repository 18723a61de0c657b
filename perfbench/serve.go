package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/serve"
)

// Service-loop shape. Each cycle of a client sends one cold detect, one
// delta upload plus a warm detect of the new version, hitsPerCycle repeat
// detects of recent keys, and every uploadEvery-th cycle one new graph.
const (
	hitsPerCycle = 3
	uploadEvery  = 4
	deltaOps     = 3
	recentKeys   = 8
)

// serverUnderTest is an in-process asamap server on a loopback listener.
type serverUnderTest struct {
	srv      *serve.Server
	hs       *http.Server
	url      string
	done     chan error
	mu       sync.Mutex
	uploadMS samples // server-side handler time of graph uploads
}

// startServer starts serve.New(DefaultConfig()) behind a loopback listener.
// The handler wrapper times uploads on the server side: only detect
// responses carry the server's own elapsed time.
func startServer() (*serverUnderTest, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &serverUnderTest{srv: serve.New(serve.DefaultConfig()), url: "http://" + ln.Addr().String(),
		done: make(chan error, 1)}
	h := s.srv.Handler()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/graphs" {
			t0 := time.Now()
			h.ServeHTTP(w, r)
			d := millis(time.Since(t0))
			s.mu.Lock()
			s.uploadMS = append(s.uploadMS, d)
			s.mu.Unlock()
			return
		}
		h.ServeHTTP(w, r)
	})}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the server down and waits for both.
func (s *serverUnderTest) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// capture is a client transport that remembers the last response's status
// and server-side elapsed time. Each client goroutine owns one.
type capture struct {
	base    http.RoundTripper
	status  int
	elapsed time.Duration
}

func (c *capture) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	c.status, c.elapsed = 0, 0
	if err == nil {
		c.status = resp.StatusCode
		c.elapsed, _ = time.ParseDuration(resp.Header.Get("X-Asamap-Elapsed"))
	}
	return resp, err
}

// loopStats is what the client loop saw.
type loopStats struct {
	cold, warm, hit, upl     samples // client-side ms
	coldSrv, warmSrv, hitSrv samples // server-side ms (X-Asamap-Elapsed)
	responseKB, frontierFrac samples
	requests, hits, detects  int
	throttled                int
}

func (l *loopStats) merge(o *loopStats) {
	l.cold = append(l.cold, o.cold...)
	l.warm = append(l.warm, o.warm...)
	l.hit = append(l.hit, o.hit...)
	l.upl = append(l.upl, o.upl...)
	l.coldSrv = append(l.coldSrv, o.coldSrv...)
	l.warmSrv = append(l.warmSrv, o.warmSrv...)
	l.hitSrv = append(l.hitSrv, o.hitSrv...)
	l.responseKB = append(l.responseKB, o.responseKB...)
	l.frontierFrac = append(l.frontierFrac, o.frontierFrac...)
	l.requests += o.requests
	l.hits += o.hits
	l.detects += o.detects
	l.throttled += o.throttled
}

// serveRun is what one service loop measured.
type serveRun struct {
	loopStats
	setup           samples // server start + base uploads, seconds
	uploadSrv       samples // server-side ms of graph uploads
	wall            time.Duration
	queueWaitMeanMS float64
}

// clientStats is one client goroutine's share of a serveRun.
type clientStats struct {
	loopStats
	attempted int
	fails     []string
}

type recentEntry struct {
	graph string
	seed  uint64
	body  []byte
}

// recent holds the last cold results; repeat detects of them must hit the
// cache and return the same bytes.
type recent struct {
	mu      sync.Mutex
	entries []recentEntry
}

func (r *recent) add(e recentEntry) {
	r.mu.Lock()
	r.entries = append(r.entries, e)
	if len(r.entries) > recentKeys {
		r.entries = r.entries[1:]
	}
	r.mu.Unlock()
}

func (r *recent) pick(i int) (recentEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) == 0 {
		return recentEntry{}, false
	}
	return r.entries[i%len(r.entries)], true
}

// setupServer starts a server and uploads the base graphs.
func setupServer(ctx context.Context, bases []input) (*serverUnderTest, []serve.GraphInfo, error) {
	s, err := startServer()
	if err != nil {
		return nil, nil, err
	}
	cl := serve.NewClient(s.url, nil)
	var infos []serve.GraphInfo
	for _, b := range bases {
		info, err := cl.UploadGraph(ctx, bytes.NewReader(b.text), false)
		if err != nil {
			s.stop()
			return nil, nil, fmt.Errorf("upload %s: %w", b.name, err)
		}
		infos = append(infos, info)
	}
	return s, infos, nil
}

// runServe measures the service loop: setupRepeat set-ups (server start +
// base uploads; the last server is kept), an untimed cold detect of each
// base so warm detects find their base result cached, then a closed loop of
// `workers` clients for budget, extended until every class has its minimum
// sample count.
func runServe(ctx context.Context, in *inputs, sc scale, seed uint64, budget time.Duration, tr *tracer, chk *checker) (*serveRun, error) {
	sr := &serveRun{}
	var s *serverUnderTest
	var bases []serve.GraphInfo
	for i := 0; i < sc.SetupRepeat; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		tr.begin("serve.setup")
		s, bases, err = setupServer(ctx, in.bases)
		tr.end()
		if err != nil {
			return nil, err
		}
		sr.setup = append(sr.setup, seconds(time.Since(t0)))
	}
	defer s.stop()

	transport := &http.Transport{MaxIdleConnsPerHost: workers}
	defer transport.CloseIdleConnections()
	warmup := serve.NewClient(s.url, &http.Client{Transport: transport})
	for _, b := range bases {
		if _, err := warmup.Detect(ctx, b.Hash, serve.DetectOptions{}); err != nil {
			return nil, fmt.Errorf("warm-up detect: %w", err)
		}
	}
	// Only the loop's uploads count; the base uploads were set-up.
	s.mu.Lock()
	s.uploadMS = nil
	s.mu.Unlock()

	var (
		rec      recent
		cycles   atomic.Int64
		counts   [4]atomic.Int64 // cold, warm, hit, upload samples so far
		wg       sync.WaitGroup
		stats    = make([]*clientStats, workers)
		tracers  = make([]*tracer, workers)
		hardStop = budget + 60*time.Second
	)
	enough := func() bool {
		return counts[0].Load() >= int64(sc.MinCold) && counts[1].Load() >= int64(sc.MinOther) &&
			counts[2].Load() >= int64(sc.MinOther) && counts[3].Load() >= int64(sc.MinOther)
	}
	start := time.Now()
	for c := 0; c < workers; c++ {
		st := &clientStats{}
		stats[c] = st
		if tr != nil {
			tracers[c] = newTracer(tr.epoch)
		}
		wg.Add(1)
		go func(c int, st *clientStats, t *tracer) {
			defer wg.Done()
			cp := &capture{base: transport}
			cl := serve.NewClient(s.url, &http.Client{Transport: cp})
			r := rng.New(rng.Hash64(seed ^ uint64(c+1)<<32))
			for {
				el := time.Since(start)
				if el >= hardStop || (el >= budget && enough()) || ctx.Err() != nil {
					return
				}
				cyc := int(cycles.Add(1))
				t.setIter(cyc)
				t.begin("bench.serve_cycle")
				serveCycle(ctx, cl, cp, in, bases, cyc, r, &rec, st, &counts, t)
				t.end()
			}
		}(c, st, tracers[c])
	}
	wg.Wait()
	sr.wall = time.Since(start)
	if !enough() {
		return nil, fmt.Errorf("service loop: too few samples after %v (cold %d, warm %d, hit %d, upload %d)",
			sr.wall, counts[0].Load(), counts[1].Load(), counts[2].Load(), counts[3].Load())
	}
	for c, st := range stats {
		tr.absorb(tracers[c])
		sr.merge(&st.loopStats)
		chk.attempted += st.attempted
		for _, f := range st.fails {
			chk.fail(f)
		}
	}
	s.mu.Lock()
	sr.uploadSrv = append(samples(nil), s.uploadMS...)
	s.mu.Unlock()
	snap := s.srv.MetricsSnapshot()
	if qw, ok := snap.Histograms["queue_wait_seconds"]; ok {
		hs := qw.Snapshot()
		if hs.Count > 0 {
			sr.queueWaitMeanMS = millis(hs.Sum) / float64(hs.Count)
		}
	}
	return sr, nil
}

// serveCycle runs one client cycle and records what it saw.
func serveCycle(ctx context.Context, cl *serve.Client, cp *capture, in *inputs, bases []serve.GraphInfo, cyc int,
	r *rng.RNG, rec *recent, st *clientStats, counts *[4]atomic.Int64, t *tracer) {
	b := cyc % len(bases)
	ok := func(cond bool, msg string) {
		st.attempted++
		if !cond {
			st.fails = append(st.fails, msg)
		}
	}
	busy := func(err error) {
		var be *serve.ServerBusyError
		if errors.As(err, &be) {
			st.throttled++
		}
	}

	// Cold detect: a fresh seed, so a cache miss.
	seed := uint64(cyc) + 1000
	t0 := time.Now()
	var res *serve.DetectResult
	var err error
	t.call("serve.detect_cold", func() { res, err = cl.Detect(ctx, bases[b].Hash, serve.DetectOptions{Seed: seed}) })
	d := time.Since(t0)
	st.requests++
	st.detects++
	ok(err == nil && cp.status == http.StatusOK, fmt.Sprintf("cold detect: status %d: %v", cp.status, err))
	if err != nil {
		busy(err)
		return
	}
	ok(res.Cache == serve.CacheMiss, "cold detect: fresh seed was not a cache miss: "+string(res.Cache))
	st.cold = append(st.cold, millis(d))
	st.coldSrv = append(st.coldSrv, millis(cp.elapsed))
	st.responseKB = append(st.responseKB, float64(len(res.Raw))/1e3)
	counts[0].Add(1)
	rec.add(recentEntry{graph: bases[b].Hash, seed: seed, body: res.Raw})

	// Delta upload at depth 1 on the base graph, then a warm detect of it.
	// The last op's weight carries the cycle number, so every delta — and
	// every version — is new.
	var delta strings.Builder
	nv := uint32(bases[b].Vertices)
	for i := 0; i < deltaOps; i++ {
		u := uint32(r.Intn(int(nv)))
		v := (u + 1 + uint32(r.Intn(int(nv)-1))) % nv
		w := 1.0
		if i == deltaOps-1 {
			w = 1 + float64(cyc)/1e6
		}
		fmt.Fprintf(&delta, "+ %d %d %g\n", u, v, w)
	}
	var ver serve.VersionInfo
	t.call("serve.delta_upload", func() { ver, err = cl.UploadDelta(ctx, bases[b].Hash, strings.NewReader(delta.String())) })
	st.requests++
	ok(err == nil && cp.status == http.StatusCreated && ver.Depth == 1,
		fmt.Sprintf("delta upload: status %d depth %d: %v", cp.status, ver.Depth, err))
	if err != nil {
		busy(err)
		return
	}
	t0 = time.Now()
	t.call("serve.detect_warm", func() { res, err = cl.Detect(ctx, ver.ID, serve.DetectOptions{WarmStart: true}) })
	d = time.Since(t0)
	st.requests++
	st.detects++
	ok(err == nil && cp.status == http.StatusOK, fmt.Sprintf("warm detect: status %d: %v", cp.status, err))
	if err != nil {
		busy(err)
		return
	}
	ok(res.Cache == serve.CacheMiss && res.Warm != nil && res.Warm.Depth == 1,
		"warm detect: not a depth-1 warm miss")
	st.warm = append(st.warm, millis(d))
	st.warmSrv = append(st.warmSrv, millis(cp.elapsed))
	if res.Warm != nil && ver.Vertices > 0 {
		st.frontierFrac = append(st.frontierFrac, float64(res.Warm.FrontierSize)/float64(ver.Vertices))
	}
	counts[1].Add(1)

	// Repeat detects of recent cold keys: hits, byte-identical to the miss.
	for i := 0; i < hitsPerCycle; i++ {
		e, found := rec.pick(cyc*hitsPerCycle + i)
		if !found {
			break
		}
		t0 = time.Now()
		t.call("serve.detect_hit", func() { res, err = cl.Detect(ctx, e.graph, serve.DetectOptions{Seed: e.seed}) })
		d = time.Since(t0)
		st.requests++
		st.detects++
		ok(err == nil && cp.status == http.StatusOK, fmt.Sprintf("repeat detect: status %d: %v", cp.status, err))
		if err != nil {
			busy(err)
			return
		}
		ok(bytes.Equal(res.Raw, e.body), "repeat detect: body differs from the miss body for the same key")
		if res.Cache == serve.CacheHit {
			st.hits++
			st.hit = append(st.hit, millis(d))
			st.hitSrv = append(st.hitSrv, millis(cp.elapsed))
			counts[2].Add(1)
		}
	}

	// Every few cycles, the write path: a graph the server has not seen —
	// a base graph with one extra edge whose weight carries the cycle.
	if cyc%uploadEvery == 0 {
		u := r.Intn(int(nv))
		body := append(append([]byte(nil), in.bases[b].text...),
			fmt.Sprintf("%d\t%d\t%g\n", u, (u+1)%int(nv), 1+float64(cyc)/1e6)...)
		t0 = time.Now()
		var info serve.GraphInfo
		t.call("serve.upload", func() { info, err = cl.UploadGraph(ctx, bytes.NewReader(body), false) })
		d = time.Since(t0)
		st.requests++
		ok(err == nil && cp.status == http.StatusCreated && !info.Reused,
			fmt.Sprintf("graph upload: status %d reused %v: %v", cp.status, info.Reused, err))
		if err != nil {
			busy(err)
			return
		}
		st.upl = append(st.upl, millis(d))
		counts[3].Add(1)
	}
}
