package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cordoba/api"
	"cordoba/client"
	"cordoba/internal/server"
)

// daemon is one in-process cordobad on a loopback listener.
type daemon struct {
	srv   *server.Server
	url   string
	timer *handlerTimer // nil when untraced
	stop  func() error
}

// startDaemon builds a daemon and serves it. Untraced daemons run through
// Server.Serve exactly as cordobad does; traced ones serve the same route
// tree behind the benchmark's timing wrapper and shut down the same way
// Serve does (HTTP drain, then Server.Close for jobs and cluster).
func startDaemon(cfg server.Config, traced bool) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.Addr = ln.Addr().String()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := server.New(cfg)
	d := &daemon{srv: s, url: "http://" + cfg.Addr}
	done := make(chan error, 1)
	if !traced {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- s.Serve(ctx, ln, 5*time.Second) }()
		d.stop = func() error { cancel(); return <-done }
		return d, nil
	}
	d.timer = &handlerTimer{byseq: map[int64]handled{}}
	hs := &http.Server{Handler: d.timer.wrap(s.Handler())}
	go func() { done <- hs.Serve(ln) }()
	d.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return d, nil
}

// handled is one request as the timing wrapper saw it.
type handled struct {
	dur    time.Duration
	xcache string
}

// handlerTimer wraps Server.Handler() and records each tagged request's
// handler time and X-Cache verdict, keyed by the sequence number the
// benchmark's client transport stamps on it.
type handlerTimer struct {
	mu    sync.Mutex
	byseq map[int64]handled
}

const seqHeader = "X-Bench-Seq"

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		if err != nil {
			return
		}
		t.mu.Lock()
		t.byseq[seq] = handled{dur: d, xcache: w.Header().Get("X-Cache")}
		t.mu.Unlock()
	})
}

func (t *handlerTimer) get(seq int64) (handled, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.byseq[seq]
	return h, ok
}

// call records what the client transport saw for one request; pass it in
// the request context with withCall.
type call struct {
	seq     int64
	xcache  string
	capture bool
	body    bytes.Buffer
}

type callKey struct{}

func withCall(ctx context.Context, c *call) context.Context {
	return context.WithValue(ctx, callKey{}, c)
}

// captureTransport tags requests with a sequence number and records status,
// X-Cache and (when asked) the raw response bytes the client decoded.
type captureTransport struct {
	base http.RoundTripper
	seq  atomic.Int64
}

func (t *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c, _ := req.Context().Value(callKey{}).(*call)
	if c == nil {
		return t.base.RoundTrip(req)
	}
	c.seq = t.seq.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(seqHeader, strconv.FormatInt(c.seq, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c.xcache = resp.Header.Get("X-Cache")
	if c.capture {
		resp.Body = teeBody{resp.Body, &c.body}
	}
	return resp, nil
}

type teeBody struct {
	io.ReadCloser
	w io.Writer
}

func (b teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.w.Write(p[:n])
	return n, err
}

// newClient returns a typed client whose transport holds at most conns
// connections to the daemon and never retries, so every refusal counts.
func newClient(url string, conns int) *client.Client {
	tr := &captureTransport{base: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetry(0, 0, 0))
}

// scrape reads a daemon's /metrics as series → value. It uses its own
// connection so it never competes with the measured client's.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// counterDelta sums after−before over every series whose name (labels
// stripped) equals name.
func counterDelta(before, after map[string]float64, name string) float64 {
	d := 0.0
	for k, v := range after {
		base := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base = k[:i]
		}
		if base == name {
			d += v - before[k]
		}
	}
	return d
}

// jobRun is one job as the client followed it.
type jobRun struct {
	status    api.JobStatus // terminal status from the done event
	resp      *api.DSEResponse
	raw       []byte
	latency   time.Duration // submit → result bytes read
	submit    time.Duration // POST /v1/jobs round trip
	doneAt    time.Time     // SSE done event arrival
	resultDur time.Duration // GET /v1/jobs/{id}/result round trip
	calls     []*call       // submit, events, result
}

// runJob submits one job, follows its SSE stream to the done event and
// reads the result.
func runJob(ctx context.Context, cl *client.Client, body api.DSERequest) (*jobRun, error) {
	jr := &jobRun{}
	start := time.Now()
	sc := &call{}
	st, err := cl.SubmitJob(withCall(ctx, sc), body)
	jr.submit = time.Since(start)
	jr.calls = append(jr.calls, sc)
	if err != nil {
		return jr, fmt.Errorf("submit: %w", err)
	}
	ec := &call{}
	jr.calls = append(jr.calls, ec)
	done := false
	err = cl.StreamJobEvents(withCall(ctx, ec), st.ID, 0, func(ev api.JobEvent) {
		if ev.Job.State.Terminal() && !done {
			done = true
			jr.doneAt = time.Now()
			jr.status = ev.Job
		}
	})
	if err != nil {
		return jr, fmt.Errorf("events %s: %w", st.ID, err)
	}
	if !done {
		return jr, fmt.Errorf("events %s: stream closed before done", st.ID)
	}
	if jr.status.State != api.JobSucceeded {
		return jr, fmt.Errorf("job %s ended %s: %s", st.ID, jr.status.State, jr.status.Error)
	}
	rc := &call{capture: true}
	rstart := time.Now()
	resp, err := cl.JobResult(withCall(ctx, rc), st.ID)
	jr.resultDur = time.Since(rstart)
	jr.latency = time.Since(start)
	jr.calls = append(jr.calls, rc)
	if err != nil {
		return jr, fmt.Errorf("result %s: %w", st.ID, err)
	}
	jr.resp, jr.raw = resp, rc.body.Bytes()
	return jr, nil
}
