package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rofs/internal/core"
	"rofs/internal/obs"
	"rofs/internal/service"
)

// serve-mix: rofs-server runs as a child process and two closed-loop
// clients send it a fixed, seeded sequence of ?wait=1 submissions — 90%
// repeats of eight bench-scale specs (memory-cache hits once warmed up)
// and 10% fresh seeds (full simulations).

const (
	serveRequests = 800 // measured requests per repetition
	serveClients  = 2
	freshEvery    = 10 // one request in freshEvery is a fresh seed
)

// repeatSpecs are the eight bench-scale specs the mix repeats. Their
// results are recorded in refs/serve-mix.json.
var repeatSpecs = []service.RunRequest{
	{Policy: "buddy", Workload: "TS", Test: "app"},
	{Policy: "rbuddy", Workload: "TS", Test: "seq"},
	{Policy: "extent", Workload: "TS", Test: "alloc"},
	{Policy: "fixed", Workload: "TS", Test: "app"},
	{Policy: "buddy", Workload: "TP", Test: "app"},
	{Policy: "rbuddy", Workload: "TP", Test: "alloc"},
	{Policy: "extent", Workload: "SC", Test: "app"},
	{Policy: "fixed", Workload: "SC", Test: "seq", BlockBytes: 16 << 10},
}

// mixRequest is one entry of the request sequence.
type mixRequest struct {
	body  []byte
	fresh bool
	spec  int // index into repeatSpecs
}

// mixSequence builds the seeded request sequence: exactly one request in
// freshEvery is a fresh seed, and both the repeats and the fresh runs
// cycle through the eight specs, so every seed asks for the same amount
// of work; the seed decides the order and the fresh runs' seeds.
func mixSequence(seed int64, n int) []mixRequest {
	out := make([]mixRequest, n)
	hits, fresh := 0, 0
	for i := range out {
		if i%freshEvery == freshEvery-1 {
			k := fresh % len(repeatSpecs)
			fresh++
			req := repeatSpecs[k]
			req.Seed = freshSeed(seed, fresh)
			out[i] = mixRequest{body: mustJSON(req), fresh: true, spec: k}
			continue
		}
		k := hits % len(repeatSpecs)
		hits++
		out[i] = mixRequest{body: mustJSON(repeatSpecs[k]), spec: k}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// freshSeed is the simulation seed of the k-th fresh run for a workload
// seed. Fresh seeds never collide with each other, across workload seeds
// below a million in magnitude, or with the repeats' default seed 42.
func freshSeed(seed int64, k int) int64 {
	s := seed % 1_000_000
	if s < 0 {
		s = 1_000_000 - s
	}
	return 1_000_000 + s*10_000 + int64(k)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// server is one running rofs-server child.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr *bytes.Buffer

	stopOnce sync.Once
	stopErr  error
}

// startServer launches bin with a port-0 listener and waits until
// /readyz answers. extraEnv is appended to the child's environment.
func startServer(bin, dir string, extraEnv ...string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Env = append(os.Environ(), extraEnv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stderr: &stderr, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1},
		Timeout:   120 * time.Second,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("rofs-server not ready after 30s: %s", stderr.String())
		}
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			s.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := s.client.Get(s.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (the server drains and exits) and waits; after 20 s
// it kills the process. Only the first call acts; later calls return
// its result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		s.client.CloseIdleConnections()
		s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- s.cmd.Wait() }()
		select {
		case s.stopErr = <-done:
		case <-time.After(20 * time.Second):
			s.cmd.Process.Kill()
			<-done
			s.stopErr = errors.New("rofs-server did not exit within 20s of SIGTERM")
		}
	})
	return s.stopErr
}

// submit posts one ?wait=1 request and returns the status, body and
// latency (send to last body byte).
func (s *server) submit(body []byte) (int, []byte, float64, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, float64(time.Since(t0)) / float64(time.Millisecond), err
}

func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc, err := obs.ParseProm(resp.Body)
	if err != nil {
		return nil, err
	}
	return sc.Scalars(), nil
}

// procStats is the server's CPU time (user+system) and its current and
// peak resident set (VmRSS, VmHWM), read from /proc.
type procStats struct {
	CPUS, RSSMB, HWMMB float64
}

func (s *server) proc() (procStats, error) {
	var ps procStats
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+2:]))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	ps.CPUS = (ut + st) / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, _ := strings.Cut(line, ":")
		kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		switch k {
		case "VmRSS":
			ps.RSSMB = kb / 1024
		case "VmHWM":
			ps.HWMMB = kb / 1024
		}
	}
	if ps.HWMMB == 0 {
		return ps, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
	}
	return ps, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux platform Go supports.
const clockTicks = 100

// payload returns the deterministic part of a run response: the bytes of
// the result object before its serving metadata (wall_seconds, cached,
// disposition, ...). Equal specs must produce equal payloads.
func payload(body []byte) ([]byte, error) {
	i := bytes.Index(body, []byte(`"result": {`))
	j := bytes.Index(body, []byte(`"wall_seconds"`))
	if i < 0 || j < i {
		return nil, fmt.Errorf("response has no result payload: %.200s", body)
	}
	return body[i:j], nil
}

// runResult decodes the result object of a run response.
func runResult(body []byte) (*service.RunResult, error) {
	var st service.RunStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	if st.State != service.StateDone || st.Result == nil {
		return nil, fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st.Result, nil
}

// serveRef is the recorded result of one repeat spec.
type serveRef struct {
	Label string           `json:"label"`
	Frag  *core.FragResult `json:"frag,omitempty"`
	Perf  *core.PerfResult `json:"perf,omitempty"`
	Stats core.RunStats    `json:"stats"`
}

func newServeRef(label string, r *service.RunResult) serveRef {
	return serveRef{Label: label, Frag: r.Frag, Perf: r.Perf, Stats: r.Stats}
}

// serveRep is one serve-mix repetition's measurements.
type serveRep struct {
	SetupS, WallS, CPUS, PeakRSSMB float64
	Events                         uint64
	HitMS, FreshMS                 []float64
	Attempted, Failed              int
	Errors                         []string
	Before, After                  map[string]float64
	// RetainedMB is the server's resident-set growth over the load.
	RetainedMB float64
	// Warm holds the eight repeat specs' first results (the set-up) and
	// warm their response payloads, which every later hit must equal.
	Warm []serveRef
	warm [][]byte
	// ServerStderr is what the server wrote to stderr.
	ServerStderr string

	mu sync.Mutex
	ms []float64 // per request, valid where ok
	ok []bool
	// Responses by kind, for the accounting check: 200s, 200s to
	// repeats (which the server must serve from its cache), and 503s.
	completed, repeats, refused int
	// Fresh maps a sequence index to the hash of its fresh payload.
	Fresh map[int][32]byte
}

func (r *serveRep) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// begin prepares the per-request slots for a sequence of n requests.
func (r *serveRep) begin(n int) {
	r.ms = make([]float64, n)
	r.ok = make([]bool, n)
}

// record accounts one measured request: a transport error, any status
// but 200 (a 503 refusal included), a response without a result, or a
// hit whose payload differs from the first response for its spec is a
// failed operation; anything else contributes its latency.
func (r *serveRep) record(i int, rq mixRequest, code int, body []byte, ms float64, err error) {
	var p []byte
	var events uint64
	if err == nil && code == http.StatusOK {
		p, err = payload(body)
		if err == nil && rq.fresh {
			var res *service.RunResult
			if res, err = runResult(body); err == nil {
				events = res.Stats.Events
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch code {
	case http.StatusOK:
		r.completed++
		if !rq.fresh {
			r.repeats++
		}
	case http.StatusServiceUnavailable:
		r.refused++
	}
	switch {
	case err != nil:
		r.fail("request %d: %v", i, err)
	case code != http.StatusOK:
		r.fail("request %d: status %d", i, code)
	case !rq.fresh && (rq.spec >= len(r.warm) || !bytes.Equal(p, r.warm[rq.spec])):
		r.fail("request %d: hit differs from the first response for spec %d", i, rq.spec)
	default:
		r.ok[i], r.ms[i] = true, ms
		if rq.fresh {
			r.Fresh[i] = sha256.Sum256(p)
			r.Events += events
		}
	}
}

// end counts the sequence as attempted and sorts the successful
// requests' latencies into hits and fresh runs.
func (r *serveRep) end(seq []mixRequest) {
	r.Attempted += len(seq)
	for i, rq := range seq {
		switch {
		case !r.ok[i]:
		case rq.fresh:
			r.FreshMS = append(r.FreshMS, r.ms[i])
		default:
			r.HitMS = append(r.HitMS, r.ms[i])
		}
	}
}

// serveOpts are the traced run's hooks into a repetition.
type serveOpts struct {
	env       []string // extra server environment
	onRequest func(i int, start time.Time, ms float64)
	after     func(srv *server, rep *serveRep) error // before the server stops
}

// serveRepetition starts a server, warms the eight repeat specs (the
// set-up), runs the sequence with serveClients closed-loop clients and
// stops the server.
func serveRepetition(bin, dir string, seq []mixRequest, opts serveOpts) (*serveRep, error) {
	rep := &serveRep{Fresh: make(map[int][32]byte)}
	t0 := time.Now()
	srv, err := startServer(bin, dir, opts.env...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rep.warm = make([][]byte, len(repeatSpecs))
	for k, req := range repeatSpecs {
		rep.Attempted++
		code, body, _, err := srv.submit(mustJSON(req))
		if err != nil || code != http.StatusOK {
			rep.fail("warm-up %d: status %d: %v", k, code, err)
			continue
		}
		r, err := runResult(body)
		if err != nil {
			rep.fail("warm-up %d: %v", k, err)
			continue
		}
		rep.Warm = append(rep.Warm, newServeRef(requestLabel(req), r))
		if rep.warm[k], err = payload(body); err != nil {
			rep.fail("warm-up %d: %v", k, err)
		}
	}
	rep.SetupS = time.Since(t0).Seconds()

	if rep.Before, err = srv.scrape(); err != nil {
		return nil, err
	}
	p0, err := srv.proc()
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	rep.begin(len(seq))
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				t := time.Now()
				code, body, ms, err := srv.submit(seq[i].body)
				if opts.onRequest != nil {
					opts.onRequest(i, t, ms)
				}
				rep.record(i, seq[i], code, body, ms, err)
			}
		}()
	}
	wg.Wait()
	rep.WallS = time.Since(start).Seconds()
	rep.end(seq)
	p1, err := srv.proc()
	if err != nil {
		return nil, err
	}
	rep.CPUS, rep.PeakRSSMB = p1.CPUS-p0.CPUS, p1.HWMMB
	rep.RetainedMB = p1.RSSMB - p0.RSSMB
	if rep.After, err = srv.scrape(); err != nil {
		return nil, err
	}
	rep.checkAccounting(seq)
	if opts.after != nil {
		if err := opts.after(srv, rep); err != nil {
			return nil, err
		}
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	rep.ServerStderr = srv.stderr.String()
	return rep, nil
}

// checkAccounting compares the clients' view of the load with the
// server's counter deltas: every submission arrived, every completion was
// admitted and finished, every refusal was counted as a rejection, and
// every repeat was served from the cache.
func (r *serveRep) checkAccounting(seq []mixRequest) {
	delta := func(name string) int {
		return int(r.After["rofs_service_"+name] - r.Before["rofs_service_"+name])
	}
	checks := []struct {
		what       string
		client, sv int
	}{
		{"submissions", len(seq), delta("http_requests_submit")},
		{"admitted runs", r.completed, delta("runs_admitted")},
		{"finished runs", r.completed, delta("runs_done")},
		{"refusals", r.refused, delta("runs_rejected")},
		{"cache hits", r.repeats, delta("runs_cached")},
	}
	for _, c := range checks {
		if c.client != c.sv {
			r.fail("accounting: client saw %d %s, server counted %d", c.client, c.what, c.sv)
		}
	}
}

func requestLabel(r service.RunRequest) string {
	sp, err := r.Spec()
	if err != nil {
		return fmt.Sprintf("%s/%s/%s", r.Policy, r.Workload, r.Test)
	}
	return sp.Label()
}
