package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synopsis"
)

// The query workload: a V-optimal histogram fitted at set-up and served
// over loopback; two closed-loop connections POST binary batches of
// unsorted ranges with log-uniform lengths from a pool of pre-encoded
// bodies. Per-range work (the synopsis batch kernel, wire parse and
// encode) dominates; stream and wal are idle.
const (
	queryN       = 1 << 20
	queryK       = 1000
	queryBatch   = 4096
	queryBodies  = 32
	queryConns   = 2
	queryProbeIn = 8 // a traced connection probes the layers every 8th request
	queryName    = "q"
)

// queryBody is one pre-encoded request with its precomputed reply.
type queryBody struct {
	req  []byte
	want []byte
}

// queryRun is one measured phase's outcome.
type queryRun struct {
	lat             series // request round trips
	requests, fails int
	checkErr        error
}

func runQuery(cfg *config) (*result, error) {
	freq := frequencyVector(newRand(cfg.seed, 1), queryN)

	// Set-up: fit, host, listen — several times, keeping the last.
	var setups, fits []float64
	var syn synopsis.Synopsis
	var h *hosted
	for rep := 0; rep < setupReps; rep++ {
		if h != nil {
			h.close()
		}
		start := time.Now()
		s, err := synopsis.VOptimal(freq, queryK)
		if err != nil {
			return nil, err
		}
		fits = append(fits, float64(time.Since(start))/1e6)
		srv := serve.NewServer(&serve.Config{Workers: 1})
		if err := srv.Host(queryName, s); err != nil {
			return nil, err
		}
		if h, err = listen(srv); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		syn = s
	}
	defer h.close()

	hist := syn.(interface{ Histogram() *core.Histogram }).Histogram()
	res := &result{metrics: map[string]float64{
		"setup_s":     median(setups),
		"err_rel":     hist.L2DistToDense(freq) / l2(freq),
		"core.fit_ms": median(fits),
	}}
	res.check(certificate(cfg.seed))

	// Request pool with the in-process answer for each body.
	r := newRand(cfg.seed, 2)
	bodies := make([]queryBody, queryBodies)
	as, bs := make([]int, queryBatch), make([]int, queryBatch)
	for i := range bodies {
		for j := range as {
			as[j], bs[j] = randomRange(r, queryN)
		}
		var buf bytes.Buffer
		if err := serve.EncodeRangesBody(&buf, as, bs); err != nil {
			return nil, err
		}
		vals, err := synopsis.EstimateRangeBatch(syn, as, bs, 1)
		if err != nil {
			return nil, err
		}
		bodies[i] = queryBody{req: buf.Bytes(), want: serve.AppendValuesBody(nil, vals)}
	}

	conns := make([]*http.Client, queryConns)
	for i := range conns {
		conns[i] = newConn()
		defer conns[i].CloseIdleConnections()
	}
	q := &queryDriver{syn: syn, local: h.srv.Handler(), bodies: bodies, conns: conns, url: h.url + "/v1/" + queryName + "/range"}

	q.phase(nil, warmupSeconds, nil)
	if !cfg.trace {
		ph := startPhase()
		run := q.phase(ph, cfg.seconds, nil)
		st := ph.end()
		span := time.Duration(cfg.seconds * float64(time.Second))
		res.attempted, res.failed = run.requests, run.fails
		res.check(run.checkErr)
		res.metrics["p90_us"] = run.lat.windowed(0.9, span)
		res.metrics["heap_peak_mb"] = st.heapPeakMiB
		return res, nil
	}

	ph := startPhase()
	plain := q.phase(ph, cfg.seconds/2, nil)
	st := ph.end()
	t := newTracer()
	h.traced.t.Store(t)
	traced := q.phase(nil, cfg.seconds/2, t)
	h.traced.t.Store(nil)
	res.attempted, res.failed = plain.requests+traced.requests, plain.fails+traced.fails
	res.check(plain.checkErr)
	res.check(traced.checkErr)

	ls := t.analyze()
	m := res.metrics
	m["synopsis.range_batch_us"] = median(ls.dur["synopsis.range_batch"])
	m["serve.handler_us"] = median(ls.dur["serve.local"])
	m["serve.wire_us"] = median(ls.diff("serve.local", "synopsis.range_batch"))
	m["codec.parse_us"] = median(ls.dur["codec.parse"])
	m["codec.encode_us"] = median(ls.dur["codec.encode"])
	m["transport.us"] = median(ls.self["transport.roundtrip"])
	splitMetrics(m, median(ls.dur["transport.roundtrip"]), m["transport.us"], m["serve.wire_us"], m["synopsis.range_batch_us"])
	m["runtime.cpu_ns_per_item"] = st.cpuPerItem
	m["runtime.allocs_per_op"] = float64(st.allocs) / float64(plain.requests)
	m["runtime.gc_cycles"] = float64(st.gcs)
	m["trace.overhead_us"] = median(traced.lat.lat) - median(plain.lat.lat)
	m["trace.spans"] = float64(len(ls.spans))
	return res, t.write(fmt.Sprintf("query-seed%d", cfg.seed))
}

// splitMetrics records the split of one request's median round trip into
// named layers plus the residual the layer medians do not account for.
func splitMetrics(m map[string]float64, roundTrip, transport, serveWire, engine float64) {
	m["split.transport_us"] = transport
	m["split.serve_us"] = serveWire
	m["split.engine_us"] = engine
	m["split.residual_us"] = roundTrip - transport - serveWire - engine
}

// queryDriver runs the closed loop.
type queryDriver struct {
	syn    synopsis.Synopsis
	local  http.Handler // the server's handler, for in-process probes
	bodies []queryBody
	conns  []*http.Client
	url    string
}

// phase runs every connection's closed loop for the given seconds,
// counting ranges answered into ph (nil during warm-up); with a tracer it
// records spans and probes the layers in process.
func (q *queryDriver) phase(ph *phase, seconds float64, t *tracer) queryRun {
	start := time.Now()
	if ph != nil {
		start = ph.start
	}
	end := deadline(seconds)
	runs := make([]queryRun, len(q.conns))
	var wg sync.WaitGroup
	for c := range q.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[c] = q.loop(c, start, end, ph, t)
		}()
	}
	wg.Wait()
	var all queryRun
	for _, r := range runs {
		all.lat.merge(&r.lat)
		all.requests += r.requests
		all.fails += r.fails
		if all.checkErr == nil {
			all.checkErr = r.checkErr
		}
	}
	return all
}

func (q *queryDriver) loop(c int, start, end time.Time, ph *phase, t *tracer) queryRun {
	var run queryRun
	var buf []byte
	var p probeScratch
	for i := c; time.Now().Before(end); i += len(q.conns) {
		b := &q.bodies[i%len(q.bodies)]
		req, err := http.NewRequest(http.MethodPost, q.url, bytes.NewReader(b.req))
		if err != nil {
			run.checkErr = err
			return run
		}
		req.Header.Set("Content-Type", serve.ContentBatch)
		id := t.newReq()
		sp := t.begin(id, -1, "transport.roundtrip")
		if t != nil {
			tagRequest(req, id, sp)
		}
		sent := time.Now()
		resp, err := q.conns[c].Do(req)
		if err == nil {
			buf, err = readBody(resp, buf)
		}
		done := time.Now()
		t.end(sp)
		run.requests++
		if err != nil {
			run.fails++
			continue
		}
		run.lat.add(us(done.Sub(sent)), done.Sub(start))
		ph.count(queryBatch)
		if err := checkReply(buf, b.want); err != nil && run.checkErr == nil {
			run.checkErr = err
		}
		if t != nil && run.requests%queryProbeIn == 0 {
			if err := p.probe(q, t, id, b); err != nil && run.checkErr == nil {
				run.checkErr = err
			}
		}
	}
	return run
}

// probeScratch holds one connection's reusable probe buffers.
type probeScratch struct {
	as, bs []int
	vals   []float64
	enc    bytes.Buffer
	w      discardWriter
}

// probe times each layer of one request in process, each call under its
// own span: wire parse, the synopsis batch kernel, reply encode, and the
// whole server handler on an in-memory writer.
func (p *probeScratch) probe(q *queryDriver, t *tracer, id uint64, b *queryBody) error {
	root := t.begin(id, -1, "probe")
	defer t.end(root)
	var err error
	t.timed(id, root, "codec.parse", func() {
		p.as, p.bs, err = serve.ParseRangesBody(b.req, serve.DefaultMaxBatch, p.as, p.bs)
	})
	if err != nil {
		return err
	}
	t.timed(id, root, "synopsis.range_batch", func() {
		p.vals, err = synopsis.EstimateRangeBatchInto(q.syn, p.as, p.bs, p.vals, 1)
	})
	if err != nil {
		return err
	}
	t.timed(id, root, "codec.encode", func() {
		p.enc.Reset()
		err = serve.EncodeValuesBody(&p.enc, p.vals)
	})
	if err != nil {
		return err
	}
	if err := checkReply(p.enc.Bytes(), b.want); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, q.url, bytes.NewReader(b.req))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", serve.ContentBatch)
	p.w.reset()
	t.timed(id, root, "serve.local", func() { q.local.ServeHTTP(&p.w, req) })
	return checkReply(p.w.body, b.want)
}
