package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	Req    uint64 `json:"req"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole traced phase; write dumps
// them when the run ends. A nil *tracer records nothing, so untraced code
// paths call the same methods.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	reqs  atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newReq allocates a request identifier.
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(req uint64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: req, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(req uint64, parent int32, name string, fn func()) time.Duration {
	id := t.begin(req, parent, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// layerStats is what the spans say about each span name: durations and
// self times (duration minus the time covered by child spans), in µs.
type layerStats struct {
	dur, self map[string][]float64
	// byReq groups span indices by request, for per-request differences.
	byReq map[uint64][]int
	spans []span
}

// analyze derives per-name durations and self times from the recorded
// spans. Children never overlap each other within one parent here, so a
// parent's self time is its duration minus the sum of its children's.
func (t *tracer) analyze() *layerStats {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	ls := &layerStats{dur: map[string][]float64{}, self: map[string][]float64{}, byReq: map[uint64][]int{}, spans: spans}
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		ls.dur[s.Name] = append(ls.dur[s.Name], float64(d)/1e3)
		ls.self[s.Name] = append(ls.self[s.Name], float64(d-child[i])/1e3)
		ls.byReq[s.Req] = append(ls.byReq[s.Req], i)
	}
	return ls
}

// diff returns, for every request holding both spans, dur(a) − dur(b) in µs.
func (ls *layerStats) diff(a, b string) []float64 {
	var out []float64
	for _, idx := range ls.byReq {
		da, db := int64(-1), int64(-1)
		for _, i := range idx {
			s := ls.spans[i]
			switch s.Name {
			case a:
				da = s.End - s.Start
			case b:
				db = s.End - s.Start
			}
		}
		if da >= 0 && db >= 0 {
			out = append(out, float64(da-db)/1e3)
		}
	}
	return out
}

// write dumps the spans as JSON lines to .bench_build/traces.
func (t *tracer) write(name string) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", n, f.Name())
	return f.Close()
}

// Header names carrying a traced request's identity from the load
// generator to the server-side span.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Span"
)

// tracedHandler wraps the server's handler: while a tracer is installed it
// records a "serve.handler" span, child of the client's round-trip span
// named in the request headers.
type tracedHandler struct {
	inner http.Handler
	t     atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.t.Load()
	raw := r.Header.Get(hdrReq)
	if t == nil || raw == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseUint(raw, 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 32)
	id := t.begin(req, int32(parent), "serve.handler")
	h.inner.ServeHTTP(w, r)
	t.end(id)
}

// tagRequest marks an outgoing request with its trace identity.
func tagRequest(r *http.Request, req uint64, parent int32) {
	r.Header.Set(hdrReq, strconv.FormatUint(req, 10))
	r.Header.Set(hdrParent, strconv.FormatInt(int64(parent), 10))
}

// discardWriter is an http.ResponseWriter that keeps the body in a reused
// buffer: the in-process stand-in for a connection when a probe calls
// Handler().ServeHTTP directly.
type discardWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *discardWriter) WriteHeader(code int) { w.status = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *discardWriter) reset() {
	w.status = 0
	w.body = w.body[:0]
	clear(w.h)
}
