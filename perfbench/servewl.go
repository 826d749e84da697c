package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"time"

	"multitherm/internal/core"
	"multitherm/internal/serve"
	"multitherm/internal/sim"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

const (
	// serveWindow is thermald's default batching window.
	serveWindow = 2 * time.Millisecond
	// phaseRequests is the request count of every measured phase, so
	// its p99 has minTail samples beyond it; maxPhaseRequests bounds a
	// phase however long the run.
	phaseRequests    = 1000
	maxPhaseRequests = 100000
	// burstRequests is the untimed burst at the first rate above the
	// reference that brings the process up to ladder load (the
	// collector's pacing, the pool's queues) before anything is
	// measured.
	burstRequests = 300
	// cellSimTime and gridSimTime are the simulated times of the
	// 4-core and 8x8 cells: about half a millisecond and 10-20 ms of
	// compute.
	cellSimTime = 0.005
	gridSimTime = 0.003
	// simTimeStep separates fresh keys: each fresh cell adds one more
	// step to its simulated time, so its content address is new.
	simTimeStep = 1e-7
	// sweepCells is the cell count of a multi-cell /v1/sweep request.
	sweepCells = 4
	// computeSamples is how many served cells the traced run recomputes
	// directly.
	computeSamples = 30
)

// serveLoad describes one thermald workload.
type serveLoad struct {
	cache int // result-cache entries
	// ladder is the offered rates (1/s) capacity is sought over; the
	// first is the reference rate latency is reported at.
	ladder []float64
	// rung is the shortest a rung above the reference runs; limit is
	// the p99 latency that defines capacity.
	rung  time.Duration
	limit time.Duration

	// newGen returns the request source of one run.
	newGen func(rng *rand.Rand) *reqGen
}

// serveLight: a low rate where requests rarely overlap; 80% repeat a
// small hot set (cache hits), 20% are fresh 4-core cells.
var serveLight = serveLoad{
	cache:  serve.DefaultCacheEntries,
	ladder: []float64{160, 1300, 1600, 1900, 2200, 2500},
	rung:   time.Second,
	limit:  50 * time.Millisecond,
	newGen: func(rng *rand.Rand) *reqGen {
		g := newReqGen(rng, []kindCount{{kindHit, 8}, {kindCell, 2}})
		for i := 0; i < 8; i++ {
			r := g.freshCell()
			r.hit = true
			g.hot = append(g.hot, r)
		}
		return g
	},
}

// serveHeavy: every request misses — 4-core cells, 8x8 grid cells and
// multi-cell sweeps — against a cache smaller than the key set.
var serveHeavy = serveLoad{
	cache:  64,
	ladder: []float64{100, 305, 340, 375, 410, 445},
	rung:   3 * time.Second,
	limit:  150 * time.Millisecond,
	newGen: func(rng *rand.Rand) *reqGen {
		return newReqGen(rng, []kindCount{{kindCell, 7}, {kindGrid, 1}, {kindSweep, 2}})
	},
}

// reqGen draws requests. The mix is stratified so that every seed
// offers the same work: each block of requests holds the workload's
// kinds in fixed numbers, in a seeded order, and fresh cells walk a
// seeded permutation of every (mix, policy) pair. Fresh cells get a
// simulated time no earlier request used, so they are cache misses.
type reqGen struct {
	rng      *rand.Rand
	kinds    []string // one block of request kinds
	block    []string // what is left of the current block
	hot      []request
	pairs    []serve.CellSpec // (mix, policy) pairs, seeded order
	policies []string         // grid-cell policies, seeded order
	fresh    int
}

// kindCount is how many requests of a kind one block holds.
type kindCount struct {
	kind string
	n    int
}

// newReqGen builds a generator whose blocks hold the given kinds.
func newReqGen(rng *rand.Rand, block []kindCount) *reqGen {
	g := &reqGen{rng: rng, policies: core.PolicyNames()}
	for _, kc := range block {
		for i := 0; i < kc.n; i++ {
			g.kinds = append(g.kinds, kc.kind)
		}
	}
	for _, m := range workload.Mixes {
		for _, p := range g.policies {
			g.pairs = append(g.pairs, serve.CellSpec{Workload: m.Name, Policy: p})
		}
	}
	rng.Shuffle(len(g.pairs), func(i, j int) { g.pairs[i], g.pairs[j] = g.pairs[j], g.pairs[i] })
	rng.Shuffle(len(g.policies), func(i, j int) { g.policies[i], g.policies[j] = g.policies[j], g.policies[i] })
	return g
}

// next draws the next request of the schedule.
func (g *reqGen) next() request {
	if len(g.block) == 0 {
		g.block = append(g.block, g.kinds...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	k := g.block[0]
	g.block = g.block[1:]
	switch k {
	case kindHit:
		return g.hot[g.rng.Intn(len(g.hot))]
	case kindGrid:
		return g.freshGrid()
	case kindSweep:
		return g.freshSweep()
	default:
		return g.freshCell()
	}
}

// freshSpec returns the next (mix, policy) pair at a new simulated
// time.
func (g *reqGen) freshSpec(base float64) serve.CellSpec {
	spec := g.pairs[g.fresh%len(g.pairs)]
	spec.SimTimeS = g.simTime(base)
	return spec
}

// simTime returns base plus a step no earlier request used.
func (g *reqGen) simTime(base float64) float64 {
	g.fresh++
	return base + float64(g.fresh)*simTimeStep
}

func cellRequest(kind, path string, body any, coreTicks int64) request {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return request{kind: kind, path: path, body: b, key: path + string(b), coreTicks: coreTicks}
}

func (g *reqGen) freshCell() request {
	return g.cell(g.freshSpec(cellSimTime))
}

func (g *reqGen) cell(spec serve.CellSpec) request {
	return cellRequest(kindCell, "/v1/sim", spec, 4*ticksPerCell(units.Seconds(spec.SimTimeS)))
}

func (g *reqGen) freshGrid() request {
	spec := g.freshSpec(gridSimTime)
	spec.Workload, spec.Floorplan = "", "8x8"
	spec.Policy = g.policies[g.fresh%len(g.policies)]
	return cellRequest(kindGrid, "/v1/sim", spec, 64*ticksPerCell(units.Seconds(spec.SimTimeS)))
}

func (g *reqGen) freshSweep() request { return g.sweep(sweepCells) }

// sweep returns a /v1/sweep request of n fresh 4-core cells.
func (g *reqGen) sweep(n int) request {
	var req serve.SweepRequest
	var ticks int64
	for i := 0; i < n; i++ {
		spec := g.freshSpec(cellSimTime)
		req.Cells = append(req.Cells, spec)
		ticks += 4 * ticksPerCell(units.Seconds(spec.SimTimeS))
	}
	return cellRequest(kindSweep, "/v1/sweep", req, ticks)
}

// server is one in-process thermald listening on loopback.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(cfg), served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains HTTP, then the server's pool, and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Close()
	return err
}

// stats reads /v1/stats through the handler, without a connection.
func (s *server) stats() (serve.Stats, error) {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.Stats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/v1/stats answered %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// serveConfig is the server under test: cache on, the default window,
// one worker per CPU.
func (l serveLoad) serveConfig(o options) serve.Config {
	return serve.Config{Workers: o.nproc, Window: serveWindow, CacheEntries: l.cache}
}

// probeSetup is a serve workload's set-up probe: a server start,
// answered /healthz included, and one 4-core cell per mix (and one
// grid cell, if the workload sends them) cold, then the same cells
// under another policy warm. Every probe cell is a cache miss.
func (l serveLoad) probeSetup(o options) (d time.Duration, err error) {
	var srv *server
	client := newClient(1)
	gen := l.newGen(rand.New(rand.NewSource(o.seed)))
	d, err = coldWarm(func(warm bool) error {
		if !warm {
			started, err := startServer(l.serveConfig(o))
			if err != nil {
				return err
			}
			srv = started
			resp, err := client.Get(srv.base + "/healthz")
			if err != nil {
				return err
			}
			resp.Body.Close()
		}
		policy := gen.policies[0]
		if warm {
			policy = gen.policies[1]
		}
		var reqs []request
		for _, m := range workload.Mixes {
			reqs = append(reqs, gen.cell(serve.CellSpec{Workload: m.Name, Policy: policy, SimTimeS: gen.simTime(cellSimTime)}))
		}
		if slices.Contains(gen.kinds, kindGrid) {
			reqs = append(reqs, gen.freshGrid())
		}
		for _, r := range reqs {
			status, body, err := post(client, srv.base+r.path, r.body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("%s: status %d: %.200s", r.path, status, body)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	client.CloseIdleConnections()
	if srv != nil {
		err = errors.Join(err, srv.stop())
	}
	return d, err
}

// session is one run's server, client, request source and the bytes
// every key was first answered with.
type session struct {
	o      options
	cache  int // the server's result-cache bound
	srv    *server
	client *http.Client
	rng    *rand.Rand
	gen    *reqGen
	known  map[string][]byte
	rep    *report
}

func newSession(l serveLoad, o options, rep *report) (*session, error) {
	srv, err := startServer(l.serveConfig(o))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	return &session{
		o: o, cache: l.cache, srv: srv, client: newClient(o.nproc), rng: rng,
		gen: l.newGen(rng), known: map[string][]byte{}, rep: rep,
	}, nil
}

func (s *session) close() error {
	s.client.CloseIdleConnections()
	return s.srv.stop()
}

// warm answers the hot set once (their first, missing, responses are
// the bytes every later hit must repeat) and sends one request per
// mix and per request kind, so the program's memoized set-up is done
// before anything is timed. Then it fills the result cache to its
// bound with fresh cells, so every timed phase meets the full,
// evicting cache a long-running server settles into, not one that
// grows (and changes what an insert costs) through the run.
func (s *session) warm() error {
	var reqs []request
	reqs = append(reqs, s.gen.hot...)
	for _, m := range workload.Mixes {
		reqs = append(reqs, s.gen.cell(serve.CellSpec{
			Workload: m.Name, Policy: s.gen.policies[0], SimTimeS: s.gen.simTime(cellSimTime),
		}))
	}
	reqs = append(reqs, s.gen.freshGrid(), s.gen.freshSweep())
	for _, r := range reqs {
		status, body, err := post(s.client, s.srv.base+r.path, r.body)
		r.hit = false // the first answer of a hot key is its miss
		s.rep.check(s.verify(r, outcome{status: status, body: body, err: err}))
	}
	for sweeps := 0; ; sweeps++ {
		st, err := s.srv.stats()
		if err != nil {
			return err
		}
		if st.Cache.Entries >= s.cache {
			return nil
		}
		if sweeps > s.cache/serve.MaxSweepCells+1 {
			return fmt.Errorf("the result cache holds %d entries after %d filling sweeps; want %d", st.Cache.Entries, sweeps, s.cache)
		}
		r := s.gen.sweep(min(serve.MaxSweepCells, s.cache-st.Cache.Entries))
		status, body, err := post(s.client, s.srv.base+r.path, r.body)
		s.rep.check(s.verify(r, outcome{status: status, body: body, err: err}))
	}
}

// phaseLen is the request count of a measured phase at rate that runs
// for dur: at least phaseRequests.
func phaseLen(rate float64, dur time.Duration) int {
	return max(phaseRequests, int(rate*min(dur, time.Duration(maxSeconds)*time.Second).Seconds()))
}

// phase offers the workload at rate for n requests and checks every
// response.
func (s *session) phase(rate float64, n int) ([]arrival, []outcome) {
	arrivals := schedule(s.rng, rate, n, s.gen.next)
	outs := drive(s.client, s.srv.base, arrivals, s.o.nproc)
	for i := range outs {
		s.rep.check(s.verify(arrivals[i].req, outs[i]))
	}
	return arrivals, outs
}

// verify checks one response: 200, a hit repeats its key's first bytes
// exactly, and a miss carries sane statistics for the cells it asked
// for.
func (s *session) verify(r request, o outcome) error {
	if o.err != nil {
		return fmt.Errorf("%s: %w", r.path, o.err)
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.path, r.body, o.status, o.body)
	}
	if first, ok := s.known[r.key]; ok {
		if string(first) != string(o.body) {
			return fmt.Errorf("%s %s: response differs from the key's first response", r.path, r.body)
		}
		return nil
	}
	if r.hit {
		return fmt.Errorf("%s %s: expected a cached key, but it was never answered", r.path, r.body)
	}
	s.known[r.key] = o.body
	return checkCells(r, o.body)
}

// checkCells parses a miss response and checks each cell against the
// spec that asked for it.
func checkCells(r request, body []byte) error {
	var specs []serve.CellSpec
	var got []serve.CellResult
	if r.path == "/v1/sweep" {
		var req serve.SweepRequest
		var resp struct {
			Cells []serve.CellResult `json:"cells"`
		}
		if err := errors.Join(json.Unmarshal(r.body, &req), json.Unmarshal(body, &resp)); err != nil {
			return err
		}
		specs, got = req.Cells, resp.Cells
	} else {
		var spec serve.CellSpec
		var res serve.CellResult
		if err := errors.Join(json.Unmarshal(r.body, &spec), json.Unmarshal(body, &res)); err != nil {
			return err
		}
		specs, got = []serve.CellSpec{spec}, []serve.CellResult{res}
	}
	if len(got) != len(specs) {
		return fmt.Errorf("%s: %d cells answered for %d asked", r.path, len(got), len(specs))
	}
	for i, c := range got {
		want := specs[i]
		if c.Workload != want.Workload || c.Policy != want.Policy || c.Floorplan != want.Floorplan ||
			math.Float64bits(c.SimTimeS) != math.Float64bits(want.SimTimeS) {
			return fmt.Errorf("%s: cell %d answers %s/%s/%s@%g, asked %s/%s/%s@%g", r.path, i,
				c.Workload, c.Floorplan, c.Policy, c.SimTimeS, want.Workload, want.Floorplan, want.Policy, want.SimTimeS)
		}
		if !(c.BIPS > 0) || !(c.DutyCycle > 0 && c.DutyCycle <= 1) || !(c.Instructions > 0) {
			return fmt.Errorf("%s: cell %d statistics out of range: BIPS %g duty %g instructions %g",
				r.path, i, c.BIPS, c.DutyCycle, c.Instructions)
		}
	}
	return nil
}

// latencies returns each outcome's latency from its due time, in ms.
func latencies(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.latency())
	}
	return xs
}

// capacity interpolates the offered rate at which p99 latency crosses
// the limit. It climbs the ladder to the last rung before the first
// one whose p99 exceeds the limit, and interpolates towards that
// failing rung in log(p99), which grows about linearly with load below
// saturation. A rung passes only if its p99, with at least 1000
// samples, meets the limit: a backlog that grows through a rung pushes
// its p99 past any fixed limit. Stopping at the first failure keeps a
// lucky overloaded rung above it from counting.
func capacity(rates, p99s []float64, limit float64) float64 {
	k := -1
	for k+1 < len(rates) && p99s[k+1] <= limit {
		k++
	}
	switch {
	case k < 0:
		return rates[0] * limit / p99s[0]
	case k == len(rates)-1:
		return rates[k]
	}
	frac := math.Log(limit/p99s[k]) / math.Log(p99s[k+1]/p99s[k])
	return rates[k] + frac*(rates[k+1]-rates[k])
}

func runServeLight(o options, rep *report) error { return runServe(serveLight, o, rep) }
func runServeHeavy(o options, rep *report) error { return runServe(serveHeavy, o, rep) }

func traceServeLight(o options, rep *report) error { return traceServe(serveLight, o, rep) }
func traceServeHeavy(o options, rep *report) error { return traceServe(serveHeavy, o, rep) }

// ladderTime is how long the rungs above the reference rate run,
// with the burst before them.
func (l serveLoad) ladderTime() time.Duration {
	d := time.Duration(float64(burstRequests) / l.ladder[1] * float64(time.Second))
	for _, r := range l.ladder[1:] {
		d += max(l.rung, time.Duration(float64(phaseRequests)/r*float64(time.Second)))
	}
	return d
}

// ladderRounds is how many times a run cycles through the rate
// ladder. Each rate's requests are split over the rounds and pooled,
// so a stretch of host load falls on every rate alike instead of
// spoiling one rung; each segment drains before the next starts.
const ladderRounds = 5

// rateSamples pools what one ladder rate saw over the rounds.
type rateSamples struct {
	lat       []float64 // latency from the due time, ms
	coreTicks int64     // simulated core-ticks of the missing cells
	service   time.Duration
	alloc     uint64
}

// runServe measures the end-to-end metrics over the rate ladder. Its
// first rung is the reference rate: it fills the measurement window
// the higher rungs leave, and gives the latency metrics.
func runServe(l serveLoad, o options, rep *report) (err error) {
	s, err := newSession(l, o, rep)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	if err := s.warm(); err != nil {
		return err
	}
	s.phase(l.ladder[1], burstRequests)

	seg := make([]int, len(l.ladder))
	for i, rate := range l.ladder {
		dur := l.rung
		if i == 0 {
			dur = o.measure - l.ladderTime()
		}
		seg[i] = (phaseLen(rate, dur) + ladderRounds - 1) / ladderRounds
	}
	pooled := make([]rateSamples, len(l.ladder))
	for round := 0; round < ladderRounds; round++ {
		for i, rate := range l.ladder {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			arrivals, outs := s.phase(rate, seg[i])
			runtime.ReadMemStats(&ms1)
			p := &pooled[i]
			p.lat = append(p.lat, latencies(outs)...)
			p.alloc += ms1.TotalAlloc - ms0.TotalAlloc
			for j, a := range arrivals {
				if !a.req.hit {
					p.coreTicks += a.req.coreTicks
					p.service += outs[j].service()
				}
			}
		}
	}

	p99s := make([]float64, len(l.ladder))
	for i, rate := range l.ladder {
		if p99s[i], err = percentile(pooled[i].lat, 0.99); err != nil {
			return err
		}
		rep.note("rate %.0f/s: %d requests, p50 %.3f ms, p99 %.3f ms", rate, len(pooled[i].lat), median(pooled[i].lat), p99s[i])
	}
	// Compute throughput as a connection sees it at the reference rate:
	// simulated core-ticks of the missing cells per second of their
	// service.
	ref := pooled[0]
	rep.set("core_ticks_per_s", float64(ref.coreTicks)/ref.service.Seconds())
	rep.set("alloc_mb", float64(ref.alloc)/1e6*1000/float64(len(ref.lat)))
	rep.set("lat_p50_ms", median(ref.lat))
	rep.set("lat_p99_ms", p99s[0])
	rep.set("capacity_rps", capacity(l.ladder, p99s, ms(l.limit)))
	rep.note("reference rate %.0f/s; capacity at p99 <= %v; %d rounds", l.ladder[0], l.limit, ladderRounds)
	return nil
}

// traceServe measures the per-layer split of a serve workload: client
// spans by route and expected cache outcome, /v1/stats deltas across
// the reference phase, in-flight cells sampled through it, and the
// compute time of served cells rerun directly through sim.
func traceServe(l serveLoad, o options, rep *report) (err error) {
	setup, err := coldSetup(table8Setup())
	if err != nil {
		return err
	}
	reportSetup(rep, setup)
	s, err := newSession(l, o, rep)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	if err := s.warm(); err != nil {
		return err
	}

	before, err := s.srv.stats()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var inflight []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if st, err := s.srv.stats(); err == nil {
					inflight = append(inflight, float64(st.InflightCells))
				}
			}
		}
	}()
	arrivals, outs := s.phase(l.ladder[0], phaseLen(l.ladder[0], o.measure))
	close(stop)
	wg.Wait()
	after, err := s.srv.stats()
	if err != nil {
		return err
	}

	var hits, misses, late []float64
	var sampled []request
	for i, a := range arrivals {
		late = append(late, ms(outs[i].late))
		switch {
		case a.req.hit:
			hits = append(hits, ms(outs[i].service()))
		case a.req.kind == kindCell:
			misses = append(misses, ms(outs[i].service()))
			if len(sampled) < computeSamples && outs[i].err == nil && outs[i].status == http.StatusOK {
				sampled = append(sampled, a.req)
			}
		}
	}
	if len(misses) == 0 {
		return fmt.Errorf("no 4-core miss was served")
	}
	compute, err := computeDirect(sampled, s.known, rep)
	if err != nil {
		return err
	}
	lateP99, err := percentile(late, 0.99)
	if err != nil {
		return err
	}
	inflightP99, err := percentile(inflight, 0.99)
	if err != nil {
		return err
	}

	hitsN := after.Cache.Hits - before.Cache.Hits
	lookups := hitsN + after.Cache.Misses - before.Cache.Misses
	batches := after.Batching.Batches - before.Batching.Batches
	lanes := after.Batching.Lanes - before.Batching.Lanes
	rep.set("serve.requests", float64(len(outs)))
	rep.set("serve.hit_lat_p50_ms", median(hits))
	rep.set("serve.miss_lat_p50_ms", median(misses))
	rep.set("memo.lookups", float64(lookups))
	rep.set("memo.hit_ratio", ratio(hitsN, lookups))
	rep.set("memo.evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
	rep.set("serve.batches", float64(batches))
	rep.set("serve.batch_width_mean", ratio(lanes, batches))
	rep.set("serve.window_flush_ratio", ratio(after.Batching.WindowFlushes-before.Batching.WindowFlushes, batches))
	rep.set("serve.inflight_p99", inflightP99)
	rep.set("serve.shed_ratio", ratio(after.ShedRequests-before.ShedRequests, int64(len(outs))))
	rep.set("serve.compute_ms", compute)
	rep.set("serve.overhead_ms", median(misses)-compute)
	rep.set("gen.late_p99_ms", lateP99)
	rep.note("traced reference %.0f/s: %d requests, %d hits, %d 4-core misses, %d stats samples",
		l.ladder[0], len(outs), len(hits), len(misses), len(inflight))
	return nil
}

// ratio is a/b for counts, 0 when the base is empty.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// computeDirect reruns served 4-core cells through sim.New and Run,
// checks each against the bytes thermald answered, and returns the
// median compute time in ms.
func computeDirect(reqs []request, known map[string][]byte, rep *report) (float64, error) {
	var times []float64
	for _, r := range reqs {
		var spec serve.CellSpec
		var served serve.CellResult
		if err := errors.Join(json.Unmarshal(r.body, &spec), json.Unmarshal(known[r.key], &served)); err != nil {
			return 0, err
		}
		mix, err := workload.MixByName(spec.Workload)
		if err != nil {
			return 0, err
		}
		policy, err := core.PolicyByName(spec.Policy)
		if err != nil {
			return 0, err
		}
		cfg := sim.DefaultConfig()
		cfg.SimTime = units.Seconds(spec.SimTimeS)
		t := time.Now()
		runner, err := sim.New(cfg, mix, policy)
		if err != nil {
			return 0, err
		}
		m, err := runner.Run()
		if err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t)))
		var cerr error
		if math.Float64bits(float64(m.BIPS())) != math.Float64bits(served.BIPS) ||
			math.Float64bits(m.Instructions) != math.Float64bits(served.Instructions) || m.Migrations != served.Migrations {
			cerr = fmt.Errorf("served %s differs from the direct run: BIPS %v vs %v", r.body, served.BIPS, m.BIPS())
		}
		rep.check(cerr)
	}
	if len(times) == 0 {
		return 0, fmt.Errorf("no served cell to recompute")
	}
	return median(times), nil
}
