package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	regalloc "repro"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/serve"
	"repro/internal/target"
)

const (
	serveMachine = "x86-8"
	// lightRPS and busyRPS are the two fixed offered rates, about a
	// tenth and a fifth of what two connections sustain on the
	// benchmark host: at higher rates single host stalls decide the
	// tail.
	lightRPS = 80
	busyRPS  = 160
	// capacityPerSecond sizes the closed loop: requests per second of
	// the run, a few seconds at the host's capacity.
	capacityPerSecond = 100
	// conns is the number of concurrent connections (and sender
	// goroutines): one per CPU of the benchmark host.
	conns = 2
	// maxLateMs is the median generator lateness, at the fixed rates,
	// beyond which a run is invalid: the schedule itself slipped, not
	// just the odd send behind a GC or scheduler pause.
	maxLateMs = 1.0
	// spinMs is how long before a due time the dispatcher stops
	// sleeping and yields in a loop instead: timer wake-ups are late by
	// up to a millisecond, which would otherwise be charged to every
	// request.
	spinMs = 1.0
	// hotShare of the request stream replays the hot set; the rest are
	// cold programs, each sent once.
	hotN     = 64
	hotShare = 0.9
	// streamPerSecond sizes the request stream: enough requests for
	// every phase, cold programs never repeating.
	streamPerSecond = 600
)

// serveBench drives an in-process allocation service with the shipped
// lsra-served defaults (verifier on, default cache): over loopback HTTP
// in an open loop at two fixed rates and in a closed loop, then through
// its handler directly. The request stream replays a hot set of programs
// (the hit path: text parse, key, response print and JSON) mixed with
// never-repeated cold programs (cache writes and the engine under
// queueing). Repeats of a hot program alternate between text JSON and
// binary bodies, so a change that stops the two sharing one cache key
// shows as a lower hit ratio.
type serveBench struct {
	mach   *target.Machine
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client
	tr     atomic.Pointer[tracer] // spans of the handler wrapper

	reqs   []serveReq
	progs  []*serveProgram
	hot    []int // program indices of the hot set
	refEng *regalloc.Engine
	cursor int           // next request of the stream
	fixed  []*ir.Program // the quality set
}

// serveReq is one request of the stream.
type serveReq struct {
	prog        int
	binary      bool
	interactive bool
}

// serveProgram is one distinct program, kept only as its request
// bodies: the binary frame is lossless, so the reference allocation is
// made from it. ref is made by an engine separate from the server's.
type serveProgram struct {
	bin  []byte
	text [2][]byte // JSON request bodies: batch, interactive
	ref  *serveRef
}

type serveRef struct {
	key, text string
	// out and rep are kept for the hot set only.
	out *ir.Program
	rep *regalloc.Report
}

func setupServe(e *env) (workload, error) {
	mach, err := regalloc.ParseMachine(serveMachine)
	if err != nil {
		return nil, err
	}
	hn, total := hotN, int(streamPerSecond*e.seconds)
	if e.small {
		hn = 8
	}
	total = max(total, 20*hn)
	cold := int(float64(total) * (1 - hotShare))
	repeats := max((total-cold)/hn, 1)
	jobs, err := experiments.ClusterWorkload(mach, e.seed*10_000_000, hn, repeats, cold)
	if err != nil {
		return nil, err
	}
	s := &serveBench{mach: mach}
	fixed, err := experiments.Workload(mach, []string{"default"}, 0, hn)
	if err != nil {
		return nil, err
	}
	for _, j := range fixed {
		s.fixed = append(s.fixed, j.Prog)
	}
	s.refEng, err = regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	ids := map[int64]int{}
	seen := map[int64]int{}
	for i, j := range jobs {
		id, ok := ids[j.Seed]
		if !ok {
			id = len(s.progs)
			ids[j.Seed] = id
			p := &serveProgram{bin: irbin.EncodeProgram(j.Prog)}
			for k, prio := range []string{"batch", "interactive"} {
				if p.text[k], err = json.Marshal(serve.AllocateRequest{Machine: serveMachine, Program: j.Text, Priority: prio}); err != nil {
					return nil, err
				}
			}
			s.progs = append(s.progs, p)
			if j.Hot {
				s.hot = append(s.hot, id)
			}
		}
		r := serveReq{prog: id, interactive: j.Priority == "interactive"}
		// Hot repeats alternate formats; cold programs alternate by
		// stream position.
		if j.Hot {
			r.binary = seen[j.Seed]%2 == 1
		} else {
			r.binary = i%2 == 1
		}
		seen[j.Seed]++
		s.reqs = append(s.reqs, r)
	}

	s.srv, err = serve.New(serve.Config{Verify: true})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/allocate"
	s.hs = &http.Server{Handler: http.HandlerFunc(s.handle)}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	// Warm-up: the hot set, text then binary, as the stream first sends
	// it (the cache then holds it, as it would on a long-running
	// server), and the reference allocations of the hot set.
	for _, id := range s.hot {
		if _, err := s.reference(id, true); err != nil {
			s.close()
			return nil, err
		}
		for _, bin := range []bool{false, true} {
			status, body, err := s.send(context.Background(), serveReq{prog: id, binary: bin, interactive: true}, -1)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// handle wraps the server's ServeHTTP; on a traced run it records the
// server-side span of each request.
func (s *serveBench) handle(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.srv.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Req"))
	id := tr.begin("serve.handler", req, -1)
	s.srv.ServeHTTP(w, r)
	tr.end(id)
}

func (s *serveBench) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// request returns the URL, content type and body of one request.
func (s *serveBench) request(r serveReq) (url, ct string, body []byte) {
	p := s.progs[r.prog]
	prio := 0
	if r.interactive {
		prio = 1
	}
	if r.binary {
		return s.url + "?machine=" + serveMachine + "&priority=" + [2]string{"batch", "interactive"}[prio],
			serve.ContentTypeBinaryIR, p.bin
	}
	return s.url, "application/json", p.text[prio]
}

// send posts one request and returns the status and body.
func (s *serveBench) send(ctx context.Context, r serveReq, reqID int) (int, []byte, error) {
	url, ct, body := s.request(r)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", ct)
	hr.Header.Set("X-Perfbench-Req", strconv.Itoa(reqID))
	resp, err := s.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// reference returns the program's reference allocation, made on first
// use by the benchmark's own engine from the program as generated.
// keep retains the programs, which only the hot set needs.
func (s *serveBench) reference(id int, keep bool) (*serveRef, error) {
	p := s.progs[id]
	if p.ref == nil {
		orig, err := irbin.DecodeProgram(p.bin)
		if err != nil {
			return nil, err
		}
		out, rep, err := s.refEng.AllocateProgram(context.Background(), orig)
		if err != nil {
			return nil, err
		}
		p.ref = &serveRef{key: string(s.refEng.CacheKey(orig)), text: printProgram(out, s.mach)}
		if keep {
			p.ref.out, p.ref.rep = out, rep
		}
	}
	return p.ref, nil
}

// check compares one response with the reference allocation: the same
// program text and the same content key, whichever format was sent.
func (s *serveBench) check(r serveReq, body []byte) error {
	var resp serve.AllocateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	ref, err := s.reference(r.prog, false)
	if err != nil {
		return fmt.Errorf("reference allocation: %w", err)
	}
	switch {
	case len(resp.Results) != 1:
		return fmt.Errorf("%d results, want 1", len(resp.Results))
	case resp.Results[0].Key != ref.key:
		return fmt.Errorf("program %d (binary=%t): key %s, reference %s", r.prog, r.binary, resp.Results[0].Key, ref.key)
	case resp.Results[0].Program != ref.text:
		return fmt.Errorf("program %d (binary=%t): allocated program differs from the reference", r.prog, r.binary)
	}
	return nil
}

// shot is one scheduled request: its index in the phase and the time
// it was due.
type shot struct {
	i   int
	due time.Time
}

// phaseResult is one stretch of load: its requests' latencies and the
// outcome of checking their responses.
type phaseResult struct {
	lat      []float64 // ms from due to response; +Inf for no usable response
	late     []float64 // ms the generator sent after the due time
	failed   int
	rejected int
	// mismatched counts responses whose program or key differs from
	// the reference.
	mismatched int
	problems   []string
	reqs       []int // stream positions sent
}

// responses holds what the senders of one phase received.
type responses struct {
	status []int
	bodies [][]byte
	errs   []error
}

func newResponses(n int) *responses {
	return &responses{status: make([]int, n), bodies: make([][]byte, n), errs: make([]error, n)}
}

// take reserves the next n positions of the request stream.
func (s *serveBench) take(n int) []int {
	reqs := make([]int, n)
	for i := range reqs {
		reqs[i] = (s.cursor + i) % len(s.reqs)
	}
	s.cursor += n
	return reqs
}

// phase offers rate requests per second for dur, an open loop. A
// dispatcher releases each request at its due time into a queue sized
// to the phase, so it never blocks; conns senders take them in order.
// Latency runs from the due time, so a stall is charged to every
// request it delays.
func (s *serveBench) phase(rate float64, dur time.Duration) phaseResult {
	n := max(int(rate*dur.Seconds()), 1)
	pr := phaseResult{lat: make([]float64, n), late: make([]float64, n), reqs: s.take(n)}
	rs := newResponses(n)
	queue := make(chan shot, n)
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for sh := range queue {
				pos := pr.reqs[sh.i]
				rs.status[sh.i], rs.bodies[sh.i], rs.errs[sh.i] = s.send(context.Background(), s.reqs[pos], pos)
				pr.lat[sh.i] = ms(time.Since(sh.due))
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due) - time.Duration(spinMs*float64(time.Millisecond)); wait > 0 {
			time.Sleep(wait)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		pr.late[i] = ms(time.Since(due))
		queue <- shot{i, due}
	}
	close(queue)
	wg.Wait()
	s.checkAll(&pr, rs)
	return pr
}

// capacityResult is the closed loop's throughput: requests per second
// of wall time and per CPU-second of the process (client and server).
type capacityResult struct{ wall, cpu float64 }

// capacity runs a closed loop over n requests: conns senders each post
// the next request as soon as their previous one returns. A fixed count
// rather than a fixed time keeps the run's memory the same however fast
// the host is.
func (s *serveBench) capacity(n int) (capacityResult, phaseResult) {
	pr := phaseResult{lat: make([]float64, n), reqs: s.take(n)}
	rs := newResponses(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				pos := pr.reqs[i]
				t0 := time.Now()
				rs.status[i], rs.bodies[i], rs.errs[i] = s.send(context.Background(), s.reqs[pos], pos)
				pr.lat[i] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(start), cpuTime()-cpu0
	s.checkAll(&pr, rs)
	return capacityResult{wall: float64(n) / wall.Seconds(), cpu: float64(n) / cpu.Seconds()}, pr
}

// inProcess calls the handler directly, one request after another,
// for dur: the server's own cost per request, without the loopback
// network, the client or the scheduling of either. It returns the
// requests served per CPU-second of the process.
func (s *serveBench) inProcess(dur time.Duration) (float64, phaseResult) {
	var pr phaseResult
	rs := &responses{}
	start, cpu0 := time.Now(), cpuTime()
	for time.Since(start) < dur {
		pos := s.take(1)[0]
		url, ct, body := s.request(s.reqs[pos])
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		req.Header.Set("X-Perfbench-Req", strconv.Itoa(pos))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.handle(rec, req)
		pr.lat = append(pr.lat, ms(time.Since(t0)))
		pr.reqs = append(pr.reqs, pos)
		rs.status = append(rs.status, rec.Code)
		rs.bodies = append(rs.bodies, rec.Body.Bytes())
		rs.errs = append(rs.errs, nil)
	}
	rate := float64(len(pr.lat)) / (cpuTime() - cpu0).Seconds()
	s.checkAll(&pr, rs)
	return rate, pr
}

// checkAll checks every response of a phase against the reference,
// after the phase, outside its timed region.
func (s *serveBench) checkAll(pr *phaseResult, rs *responses) {
	for i := range pr.lat {
		err := rs.errs[i]
		if err == nil && rs.status[i] != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rs.status[i], bytes.TrimSpace(rs.bodies[i]))
		}
		if err != nil {
			// No usable response: it misses every latency limit.
			pr.lat[i] = math.Inf(1)
			if rs.status[i] == http.StatusTooManyRequests || rs.status[i] == http.StatusServiceUnavailable {
				pr.rejected++
			}
		} else if err = s.check(s.reqs[pr.reqs[i]], rs.bodies[i]); err != nil {
			// A wrong program delivered in time fails the run's
			// correctness, not its latency.
			pr.mismatched++
		}
		if err != nil {
			pr.failed++
			if len(pr.problems) < 5 {
				pr.problems = append(pr.problems, fmt.Sprintf("request %d: %v", pr.reqs[i], err))
			}
		}
	}
}

func (s *serveBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	c0 := s.srv.Cache().Stats()
	rt0 := sampleRuntime()
	var phases []phaseResult
	record := func(pr phaseResult) phaseResult {
		phases = append(phases, pr)
		o.attempted += len(pr.lat)
		o.failed += pr.failed
		for _, p := range pr.problems {
			if len(o.problems) < 10 {
				o.problems = append(o.problems, p)
			}
		}
		return pr
	}
	light := record(s.phase(lightRPS, d/4))
	busy := record(s.phase(busyRPS, d/4))
	capacity, cap := s.capacity(max(int(capacityPerSecond*d.Seconds()), 1))
	record(cap)
	cpuRate, direct := s.inProcess(d / 4)
	record(direct)
	rt1 := sampleRuntime()
	c1 := s.srv.Cache().Stats()

	q, err := fixedQuality(s.refEng, s.mach, s.fixed)
	if err != nil {
		o.fail("%v", err)
	}

	ll, bl := summarize(light.lat), summarize(busy.lat)
	var late []float64
	for _, pr := range []phaseResult{light, busy} {
		late = append(late, pr.late...)
	}
	lateSum := summarize(late)
	o.e2e["p50_ms"] = ll.p50
	o.e2e["cpu_rate"] = cpuRate
	o.e2e["code_instrs"] = float64(q.codeInstrs)
	o.e2e["sim_cycles"] = float64(q.simCycles)
	o.e2e["spill_dyn_ops"] = float64(q.spillDynOps)
	for _, x := range []struct {
		name string
		l    latencies
	}{{"light", ll}, {"busy", bl}} {
		o.line("  p50_ms.%s %.4f ms, %s_ms.%s %.4f ms (n=%d, %d beyond)", x.name, x.l.p50, pctName(x.l.tailPm), x.name, x.l.tail, x.l.n, x.l.beyond)
	}
	o.line("  capacity_rps %.2f wall, %.2f per CPU-second (closed loop, %d connections, %d requests)", capacity.wall, capacity.cpu, conns, len(cap.lat))
	dl := summarize(direct.lat)
	o.line("  in-process handler: %.2f requests per CPU-second; wall p50 %.4f ms, %s %.4f ms (n=%d, %d beyond)",
		cpuRate, dl.p50, pctName(dl.tailPm), dl.tail, dl.n, dl.beyond)
	mismatched := 0
	for _, pr := range phases {
		mismatched += pr.mismatched
	}
	o.line("  %d of %d responses differ from the reference allocation", mismatched, o.attempted)
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	hitRatio := float64(hits) / math.Max(float64(hits+misses), 1)
	o.line("  cache hit ratio %.4f (%d hits, %d misses)", hitRatio, hits, misses)
	o.line("  loadgen late: p50 %.4f ms, %s %.4f ms at the fixed rates", lateSum.p50, pctName(lateSum.tailPm), lateSum.tail)
	o.line("  quality over %d fixed programs: code_instrs %d, sim_cycles %d, spill_dyn_ops %d",
		len(s.fixed), q.codeInstrs, q.simCycles, q.spillDynOps)
	if lateSum.p50 > maxLateMs {
		o.invalid = fmt.Sprintf("load generator fell behind: median lateness %.2f ms > %.0f ms", lateSum.p50, maxLateMs)
	}

	if tr != nil {
		rejected := 0
		for _, pr := range phases {
			rejected += pr.rejected
		}
		o.layers["cache.hit_ratio"] = hitRatio
		o.layers["serve.rejected"] = float64(rejected)
		o.layers["loadgen.late_ms"] = lateSum.tail
		o.layers["heap.allocs_per_program"], o.layers["gc.cpu_frac"] = heapDelta(rt0, rt1, o.attempted)
		var sent []int
		for _, pr := range phases {
			sent = append(sent, pr.reqs...)
		}
		if err := s.replay(tr, sent, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// timedCache is a ResultCache decorator that records a span around
// every Get and Put.
type timedCache struct {
	regalloc.ResultCache
	tr       *tracer
	req, par int
}

func (c *timedCache) Get(key regalloc.CacheKey) (*regalloc.CachedAllocation, bool) {
	id := c.tr.begin("cache.get", c.req, c.par)
	defer c.tr.end(id)
	return c.ResultCache.Get(key)
}

func (c *timedCache) Put(key regalloc.CacheKey, e *regalloc.CachedAllocation) {
	id := c.tr.begin("cache.put", c.req, c.par)
	defer c.tr.end(id)
	c.ResultCache.Put(key, e)
}

// replay attributes the server's time to its layers. The layers inside
// the handler are not reachable from outside, so the same requests are
// replayed through the handler's own sequence of public calls — parse
// or decode, validate, cache key, cache lookup, allocate and store on a
// miss, print, JSON — each in a span, on an engine configured like the
// server's whose cache was warmed the same way. What the handler span
// holds beyond these (admission, scheduling, HTTP) is unattributed.
func (s *serveBench) replay(tr *tracer, sent []int, layers map[string]float64) error {
	cache := &timedCache{ResultCache: regalloc.NewShardedCache(regalloc.DefaultCacheEntries, 0), tr: tr}
	var totals engineTotals
	eng, err := regalloc.New(s.mach, regalloc.WithParallelism(1), regalloc.WithCache(cache))
	if err != nil {
		return err
	}
	for _, id := range s.hot {
		ref, err := s.reference(id, true)
		if err != nil {
			return err
		}
		cache.ResultCache.Put(regalloc.CacheKey(ref.key), &regalloc.CachedAllocation{Program: ref.out, Report: ref.rep})
	}
	arena := irbin.NewArena()
	ctx := context.Background()
	var decodeNs int64
	var decodeBytes int
	for _, pos := range sent {
		r := s.reqs[pos]
		_, _, body := s.request(r)
		root := tr.begin("serve.replay", pos, -1)
		cache.req, cache.par = pos, root
		step := func(name string, f func() error) error {
			id := tr.begin(name, pos, root)
			defer tr.end(id)
			return f()
		}
		var prog *ir.Program
		if r.binary {
			t0 := time.Now()
			err = step("irbin.decode", func() (err error) { prog, _, err = arena.Decode(body); return })
			decodeNs += time.Since(t0).Nanoseconds()
			decodeBytes += len(body)
		} else {
			var req serve.AllocateRequest
			if err = step("serve.json", func() error { return json.Unmarshal(body, &req) }); err == nil {
				err = step("ir.parse", func() (err error) { prog, err = ir.ParseProgramString(req.Program, s.mach); return })
			}
		}
		if err == nil {
			err = step("ir.validate", func() error { return ir.ValidateProgram(prog, s.mach) })
		}
		if err != nil {
			return fmt.Errorf("replay request %d: %w", pos, err)
		}
		var key regalloc.CacheKey
		_ = step("cache.key", func() error { key = eng.CacheKey(prog); return nil })
		var out *ir.Program
		var rep *regalloc.Report
		if ent, ok := eng.Cache().Get(key); ok {
			_ = step("cache.clone", func() error { out, rep = ent.Program.Clone(), ent.Report; return nil })
		} else {
			if err := step("engine.alloc", func() (err error) { out, rep, err = eng.AllocateProgram(ctx, prog); return }); err != nil {
				return fmt.Errorf("replay request %d: %w", pos, err)
			}
			totals.add(rep)
			eng.Cache().Put(key, &regalloc.CachedAllocation{Program: out.Clone(), Report: rep})
		}
		var text string
		_ = step("ir.print", func() error { text = printProgram(out, s.mach); return nil })
		_ = step("serve.json", func() error {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			return enc.Encode(serve.AllocateResponse{Machine: serveMachine, Algorithm: eng.Algorithm(),
				Results: []serve.AllocatedProgram{{Key: string(key), Program: text, Report: rep}}})
		})
		tr.end(root)
	}

	self := selfTimes(tr.spans)
	n := float64(len(sent))
	attributed := 0.0
	for _, name := range []string{"irbin.decode", "serve.json", "ir.parse", "ir.validate", "cache.key", "cache.get", "cache.clone", "engine.alloc", "cache.put", "ir.print"} {
		us := float64(self[name]) / 1e3 / n
		layers[name+"_us"] = us
		attributed += us
	}
	var handlerNs int64
	for _, sp := range tr.spans {
		if sp.Name == "serve.handler" {
			handlerNs += sp.End - sp.Start
		}
	}
	layers["serve.handler_us"] = float64(handlerNs) / 1e3 / n
	layers["serve.unattributed_us"] = layers["serve.handler_us"] - attributed
	totals.layers(layers, len(sent))
	if decodeNs > 0 {
		layers["irbin.decode_mb_s"] = float64(decodeBytes) / 1e6 / (float64(decodeNs) / 1e9)
	}
	return nil
}
