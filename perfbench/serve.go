package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlbench/internal/core"
	"mlbench/internal/serve"
)

var serveMix = workload{
	name:  "serve-mix",
	setup: setupServe,
}

// The traffic mix. Rates are requests per second; each rate runs for a
// third of the measurement window, lowest first.
var (
	rates     = []float64{100, 200, 1600}
	rateNames = []string{"low", "mid", "high"}
)

const (
	coldShare = 0.2
	// connections bounds the client's HTTP connections (the host's cores).
	connections = 2
	maxRetries  = 3
	// sloP99 is the latency limit behind serve.max_rps.
	sloP99 = 250 * time.Millisecond
	// coldSample is how many cold responses are re-run directly and
	// compared table for table.
	coldSample = 8
	serveCol   = "10d/5m"
	scaleDiv   = 0.01
)

// hotRows are the fig1a rows of the hot specs: three engines that
// complete and GraphLab, whose simulated OOM renders a Fail cell.
var hotRows = []string{"SimSQL", "Spark (Python)", "Giraph", "GraphLab"}

// coldRows are the rows cold requests draw from.
var coldRows = []string{"SimSQL", "Spark (Python)", "Giraph"}

func cellSpec(row string, seed uint64) core.RunSpec {
	return core.RunSpec{Figure: "fig1a", Row: row, Col: serveCol, ScaleDiv: scaleDiv, Seed: seed}
}

// request is one scheduled arrival and its outcome.
type request struct {
	phase  int
	offset time.Duration // due time from the start of the schedule
	spec   core.RunSpec
	body   []byte
	cold   bool

	released time.Time // when the generator handed it to a connection
	done     time.Time
	state    string // serve.StateDone, serve.StateFailed, "rejected", "unavailable", "error: ..."
	table    string
	fresh    bool    // neither cached nor coalesced: the submission started a job
	jobMS    float64 // finished minus created (traced runs)
}

// serveRunner is a booted server with a warm cache and a schedule.
type serveRunner struct {
	seed   uint64
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	hot    []core.RunSpec
	rng    *rand.Rand
	colds  uint64 // cold specs drawn so far; each takes the next seed
}

// setupServe boots the server on a loopback listener and warms the
// cache with every hot spec.
func setupServe(seed uint64) (runner, error) {
	s := &serveRunner{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x5e7e))}
	s.srv = serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go s.hs.Serve(ln) // returns when close shuts the server down
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true,
	}}
	for _, row := range hotRows {
		spec := cellSpec(row, seed)
		s.hot = append(s.hot, spec)
		r := s.newRequest(spec, false)
		s.do(r, false)
		if r.state != serve.StateDone {
			s.close()
			return nil, fmt.Errorf("warm %s: %s", row, r.state)
		}
	}
	return s, nil
}

// close stops the HTTP server and drains the worker pool. Their errors
// (a drain that timed out) change nothing the run has already reported.
func (s *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	_ = s.srv.Drain(ctx)
	s.client.CloseIdleConnections()
}

func (s *serveRunner) newRequest(spec core.RunSpec, cold bool) *request {
	body, _ := json.Marshal(spec) // a RunSpec of scalars and strings always marshals
	return &request{spec: spec, body: body, cold: cold}
}

// schedule draws the arrivals: per rate, a Poisson process conditioned on
// its count (sorted uniform offsets), exactly coldShare of them cold with
// unique seeds, the rest spread uniformly over the hot specs.
func (s *serveRunner) schedule(phase time.Duration) []*request {
	var reqs []*request
	for p, rate := range rates {
		n := int(math.Round(rate * phase.Seconds()))
		offs := make([]float64, n)
		for i := range offs {
			offs[i] = s.rng.Float64()
		}
		sort.Float64s(offs)
		cold := make([]bool, n)
		for _, i := range s.rng.Perm(n)[:int(math.Round(coldShare*float64(n)))] {
			cold[i] = true
		}
		for i, o := range offs {
			var r *request
			if cold[i] {
				row := coldRows[s.rng.IntN(len(coldRows))]
				s.colds++
				r = s.newRequest(cellSpec(row, s.seed*1_000_003+s.colds), true)
			} else {
				r = s.newRequest(s.hot[s.rng.IntN(len(s.hot))], false)
			}
			r.phase = p
			r.offset = time.Duration(p)*phase + time.Duration(o*float64(phase))
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// do performs one request to completion on the caller's connection:
// submit, then follow the run's event stream to its terminal event. A 429
// is retried after its Retry-After; a run evicted between submit and
// stream (404) is resubmitted. Each connection holds its request until
// the terminal event, so at most two jobs are ever outstanding and the
// server's queue cannot fill: under this client a 429 does not happen.
func (s *serveRunner) do(r *request, status bool) {
	for attempt := 0; attempt <= maxRetries; attempt++ {
		resp, err := s.client.Post(s.base+"/v1/runs", "application/json", bytes.NewReader(r.body))
		if err != nil {
			r.state = "error: " + err.Error()
			return
		}
		var sub struct {
			ID        string `json:"id"`
			Cached    bool   `json:"cached"`
			Coalesced bool   `json:"coalesced"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusTooManyRequests:
			r.state = "rejected"
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(wait) * time.Second)
			continue
		case http.StatusServiceUnavailable:
			r.state = "unavailable"
			return
		default:
			r.state = fmt.Sprintf("error: submit status %d", resp.StatusCode)
			return
		}
		if err != nil {
			r.state = "error: submit: " + err.Error()
			return
		}
		r.fresh = !sub.Cached && !sub.Coalesced
		state, table, err := s.follow(sub.ID)
		if errors.Is(err, errEvicted) {
			r.state = "error: " + err.Error()
			continue
		}
		r.done = time.Now()
		if err != nil {
			r.state = "error: " + err.Error()
			return
		}
		r.state, r.table = state, table
		if status && r.fresh {
			r.jobMS = s.jobMS(sub.ID)
		}
		return
	}
}

var errEvicted = errors.New("run evicted before its result was read")

// follow reads a run's SSE stream until its terminal event.
func (s *serveRunner) follow(id string) (state, table string, err error) {
	resp, err := s.client.Get(s.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return "", "", errEvicted
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("events status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || (event != serve.StateDone && event != serve.StateFailed && event != serve.StateCanceled) {
			continue
		}
		var payload struct {
			Table string `json:"table"`
		}
		if err := json.Unmarshal([]byte(data), &payload); err != nil {
			return "", "", fmt.Errorf("terminal event: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		return event, payload.Table, nil
	}
	if err := sc.Err(); err != nil {
		return "", "", err
	}
	return "", "", errors.New("event stream ended without a terminal event")
}

// jobMS reads a finished run's server-side time, finished minus created.
func (s *serveRunner) jobMS(id string) float64 {
	resp, err := s.client.Get(s.base + "/v1/runs/" + id)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Finished == nil {
		return 0
	}
	return ms(st.Finished.Sub(st.Created))
}

func (s *serveRunner) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := s.client.Get(s.base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// drive plays the schedule open-loop: one generator releases each request
// at its due time to a queue served by one goroutine per connection.
func (s *serveRunner) drive(ctx context.Context, reqs []*request, status bool) time.Time {
	queue := make(chan *request, len(reqs)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for i := 0; i < connections; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				s.do(r, status)
			}
		}()
	}
	start := time.Now()
	for _, r := range reqs {
		if d := time.Until(start.Add(r.offset)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		r.released = time.Now()
		queue <- r
	}
	close(queue)
	wg.Wait()
	return start
}

func (s *serveRunner) run(ctx context.Context, seconds float64, traced bool, rep *report) error {
	phase := time.Duration(seconds / float64(len(rates)) * float64(time.Second))
	reqs := s.schedule(phase)
	m0, err := s.metrics()
	if err != nil {
		return err
	}
	w := openWindow()
	start := s.drive(ctx, reqs, false)
	ws := w.close()
	m1, err := s.metrics()
	if err != nil {
		return err
	}

	// Reference tables: the hot specs and a seeded sample of cold ones,
	// run directly through core.Execute.
	refSpecs := append([]core.RunSpec(nil), s.hot...)
	var colds []*request
	for _, r := range reqs {
		if r.cold && r.state == serve.StateDone {
			colds = append(colds, r)
		}
	}
	for _, i := range s.rng.Perm(len(colds))[:min(coldSample, len(colds))] {
		refSpecs = append(refSpecs, colds[i].spec)
	}
	plain, err := runCells(ctx, refSpecs, false)
	if err != nil {
		return err
	}
	refs := map[string]string{}
	h := sha256.New()
	for _, c := range plain.cells {
		refs[c.spec.CacheKey()] = c.table
		fmt.Fprint(h, c.table)
	}
	fmt.Printf("sha256 serve-mix seed %d %x\n", s.seed, h.Sum(nil))
	checkResponses(reqs, refs, rep)

	// Latency from each arrival's due time, per rate.
	lat := make([][]float64, len(rates))
	last := make([]time.Time, len(rates))
	var coldMid []float64
	for _, r := range reqs {
		if r.done.IsZero() {
			continue
		}
		l := ms(r.done.Sub(start.Add(r.offset)))
		lat[r.phase] = append(lat[r.phase], l)
		if r.cold && r.phase == 1 {
			coldMid = append(coldMid, l)
		}
		if r.done.After(last[r.phase]) {
			last[r.phase] = r.done
		}
	}
	for p, name := range rateNames {
		fmt.Printf("rate %-4s %4.0f req/s: %d requests, p50 %.3f ms, p99 %.3f ms\n",
			name, rates[p], len(lat[p]), median(lat[p]), quantile(lat[p], 0.99))
	}
	highStart := start.Add(2 * phase)
	rep.values["wall_s"] = ws.wall.Seconds()
	rep.values["cpu_s"] = ws.cpu.Seconds()
	rep.values["alloc_mb"] = ws.allocMB
	rep.values["done_rps"] = float64(len(lat[2])) / last[2].Sub(highStart).Seconds()
	if !traced {
		return nil
	}

	// The serving numbers come from the plain schedule above, which ran
	// with no profiler and no status reads.
	var lag []float64
	for _, r := range reqs {
		lag = append(lag, ms(r.released.Sub(start.Add(r.offset))))
	}
	rep.values["serve.low.p50_ms"] = median(lat[0])
	rep.values["serve.low.p99_ms"] = quantile(lat[0], 0.99)
	rep.values["serve.mid.p50_ms"] = median(lat[1])
	rep.values["serve.mid.p99_ms"] = quantile(lat[1], 0.99)
	rep.values["serve.miss.p50_ms"] = median(coldMid)
	rep.values["serve.max_rps"] = maxRPS(reqs, start)
	hits := float64(m1.CacheHits - m0.CacheHits)
	lookups := hits + float64(m1.CacheMisses-m0.CacheMisses+m1.Coalesced-m0.Coalesced)
	rep.values["serve.hit_ratio"] = hits / math.Max(lookups, 1)
	rep.values["serve.coalesced"] = float64(m1.Coalesced - m0.Coalesced)
	rep.values["serve.gen_lag_ms.p99"] = quantile(lag, 0.99)
	rep.values["serve.gen_lag_ms.max"] = quantile(lag, 1)

	// A second schedule with a CPU profile running, which also reads each
	// started run's status, gives self time by package, the process's
	// memory numbers and the server-side job times.
	reqs2 := s.schedule(phase)
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	w2 := openWindow()
	s.drive(ctx, reqs2, true)
	ws2 := w2.close()
	self, err := prof.stop()
	if err != nil {
		return err
	}
	checkResponses(reqs2, refs, rep)
	var jobMS []float64
	for _, r := range reqs2 {
		if r.jobMS > 0 {
			jobMS = append(jobMS, r.jobMS)
		}
	}
	rep.values["serve.job_ms.p50"] = median(jobMS)
	rep.values["serve.job_ms.p99"] = quantile(jobMS, 0.99)
	setProcLayers(rep, self, ws2)

	// The layers under the server, from the reference cells run twice
	// more with recorders.
	tr, err := runCells(ctx, refSpecs, true)
	if err != nil {
		return err
	}
	tr2, err := runCells(ctx, refSpecs, true)
	if err != nil {
		return err
	}
	for _, p := range []cellPass{tr, tr2} {
		for _, c := range p.cells {
			rep.check(c.table == refs[c.spec.CacheKey()], "%s seed %d: traced run differs from the plain run", c.spec.Row, c.spec.Seed)
		}
	}
	checkTraceRepeat(rep, tr, tr2)
	setCellLayers(rep, tr)
	rep.values["trace.overhead_s"] = tr.wall.Seconds() - plain.wall.Seconds()
	return nil
}

// checkResponses checks every response of a schedule: each must be done,
// a response of a spec with a reference table must equal it, and any
// other must name its row.
func checkResponses(reqs []*request, refs map[string]string, rep *report) {
	for i, r := range reqs {
		ref, checked := refs[r.spec.CacheKey()]
		switch {
		case r.state != serve.StateDone:
			rep.check(false, "request %d (%s): %s", i, r.spec.Row, r.state)
		case checked:
			rep.check(r.table == ref, "request %d (%s seed %d): served table differs from a direct run", i, r.spec.Row, r.spec.Seed)
		default:
			rep.check(strings.Contains(r.table, r.spec.Row), "request %d (%s): table lacks its row", i, r.spec.Row)
		}
	}
}

// maxRPS is the highest rate whose requests all finished with p99 within
// sloP99, at most 1% failed, and no growing backlog: the median latency
// of the rate's last quarter of arrivals stays within twice that of its
// first quarter plus 10 ms.
func maxRPS(reqs []*request, start time.Time) float64 {
	best := 0.0
	for p, rate := range rates {
		var lat []float64
		failed := 0
		for _, r := range reqs {
			if r.phase != p {
				continue
			}
			if r.state != serve.StateDone {
				failed++
				continue
			}
			lat = append(lat, ms(r.done.Sub(start.Add(r.offset))))
		}
		n := len(lat) + failed
		q := len(lat) / 4
		if n == 0 || q == 0 || float64(failed) > 0.01*float64(n) || quantile(lat, 0.99) > ms(sloP99) {
			continue
		}
		if median(lat[len(lat)-q:]) > 2*median(lat[:q])+10 {
			continue
		}
		best = rate
	}
	return best
}
