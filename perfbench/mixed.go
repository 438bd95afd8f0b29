package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// The mixed workload is the service as histserved assembles it: a durable
// windowed engine (WAL with default group commit, 6 epochs) served over
// loopback, with one replica server fed by Replicator.SyncOnce. A writer
// POSTs binary /add batches on a fixed schedule, on which it also seals
// epochs and syncs the replica; a reader issues single windowed range GETs
// on its own fixed schedule. Per-request serve and transport cost and the
// pending-log scan dominate the reads; it is the only workload exercising
// wal, Advance under the exclusive durability lock, replication and
// recovery.
const (
	mixedN      = 1 << 20
	mixedK      = 64
	mixedEpochs = 6
	mixedWindow = 3
	mixedBatch  = 512
	mixedName   = "m"
	// The offered rates, about half of what the two loops reach together
	// closed-loop on a 2-core host (see README.md).
	mixedAddEvery  = 360 * time.Microsecond
	mixedReadEvery = 130 * time.Microsecond
	// mixedAdvanceTicks writer ticks (about a second) make an epoch; every
	// mixedSyncTicks the writer syncs the replica and probes it against the
	// primary.
	mixedAdvanceTicks = 2800
	mixedSyncTicks    = 280
	mixedProbes       = 4
	// The untimed pre-phase writes mixedPreEpochs epochs of
	// mixedPreBatches batches, checkpointing halfway, so recovery restores
	// a checkpoint and replays a WAL tail.
	mixedPreEpochs  = 8
	mixedPreBatches = 100
	// A traced loop probes the layers in process every mixedProbeIn ops.
	mixedProbeIn = 8
)

// epochLog is the exact content of one epoch: its unit-update count and,
// for the epochs a window read covers, the count at every point.
type epochLog struct {
	count  int64
	counts []int32
}

type mixedDriver struct {
	d                *stream.DurableSharded
	primary, replica *hosted
	primaryLocal     http.Handler
	replicaLocal     http.Handler
	repl             *serve.Replicator
	writerConn       *http.Client
	readerConn       *http.Client

	gen       *updateStream
	readRand  *rand.Rand
	probeRand *rand.Rand
	// sent counts unit updates submitted so far, bumped before each send:
	// an upper bound on any live answer.
	sent   atomic.Int64
	epochs []epochLog
	// mismatches counts replica probes whose answer differs bitwise from
	// the primary's.
	mismatches int
}

// writerRun is one phase's outcome on the writer's schedule.
type writerRun struct {
	lat                   series    // adds, from due
	late, syncs, advances []float64 // µs
	adds, fails           int
	checkErr              error
}

// readerRun is one phase's outcome on the reader's schedule.
type readerRun struct {
	lat, rt      series    // reads, from due and round trip
	late         []float64 // µs
	reads, fails int
	checkErr     error
}

func runMixed(cfg *config) (*result, error) {
	opts := core.DefaultOptions()
	res := &result{metrics: map[string]float64{}}
	res.check(certificate(cfg.seed))
	m := &mixedDriver{
		gen:       newUpdateStream(newRand(cfg.seed, 4), mixedN, 0),
		readRand:  newRand(cfg.seed, 5),
		probeRand: newRand(cfg.seed, 6),
		epochs:    []epochLog{{counts: make([]int32, mixedN)}},
	}
	var err error
	if m.primary, err = listen(serve.NewServer(&serve.Config{})); err != nil {
		return nil, err
	}
	defer m.primary.close()
	if m.replica, err = listen(serve.NewServer(&serve.Config{})); err != nil {
		return nil, err
	}
	defer m.replica.close()
	m.primaryLocal, m.replicaLocal = m.primary.srv.Handler(), m.replica.srv.Handler()
	m.writerConn, m.readerConn = newConn(), newConn()
	defer m.writerConn.CloseIdleConnections()
	defer m.readerConn.CloseIdleConnections()
	pc, rc := newConn(), newConn()
	defer pc.CloseIdleConnections()
	defer rc.CloseIdleConnections()
	primaryClient := serve.NewClient(m.primary.url, pc, true)
	replicaClient := serve.NewClient(m.replica.url, rc, true)

	image, want, err := m.prephase(cfg.workDir, opts)
	if err != nil {
		return nil, err
	}

	// Set-up: recover the engine from the crash image and bootstrap the
	// replica, several times; recovery must reproduce the pre-phase's
	// drained window summaries bit for bit.
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(cfg.workDir, "primary-"+strconv.Itoa(rep))
		if err := copyDir(image, dir); err != nil {
			return nil, err
		}
		start := time.Now()
		d, err := stream.RecoverDurableSharded(stream.DurableOptions{Dir: dir})
		if err != nil {
			return nil, err
		}
		if err := m.primary.srv.Host(mixedName, d); err != nil {
			return nil, err
		}
		repl, err := serve.NewReplicator(mixedName, primaryClient, []*serve.Client{replicaClient}, time.Hour)
		if err != nil {
			return nil, err
		}
		if err := repl.SyncOnce(0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		for w, h := range want {
			got, err := d.SummaryOver(w, 0)
			if err != nil {
				return nil, err
			}
			if err := sameHistogram(got, h); err != nil {
				res.check(fmt.Errorf("recovered SummaryOver(%d) differs from the pre-crash run: %w", w, err))
			}
		}
		if rep < setupReps-1 {
			if err := d.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		m.d, m.repl = d, repl
	}
	defer m.d.Close()
	res.metrics["setup_s"] = median(setups)

	if cfg.calibrate {
		w, r := m.phase(nil, cfg.seconds, nil, true)
		fmt.Fprintf(os.Stderr, "perfbench: closed loop: %.0f adds/s (%d updates each), %.0f reads/s\n",
			float64(w.adds)/cfg.seconds, mixedBatch, float64(r.reads)/cfg.seconds)
		return nil, errCalibrated
	}

	m.phase(nil, warmupSeconds, nil, false)
	st0 := m.d.Stats()
	rs0 := m.repl.Status()[0]
	plainSeconds := cfg.seconds
	if cfg.trace {
		plainSeconds /= 2
	}
	ph := startPhase()
	w, r := m.phase(ph, plainSeconds, nil, false)
	stPlain := ph.end()
	span := time.Duration(plainSeconds * float64(time.Second))
	res.attempted, res.failed = w.adds+r.reads, w.fails+r.fails
	res.check(w.checkErr)
	res.check(r.checkErr)
	if !cfg.trace {
		res.metrics["p90_us"] = r.rt.windowed(0.9, span)
		res.metrics["heap_peak_mb"] = stPlain.heapPeakMiB
		return res, m.finalChecks(res, opts)
	}

	mt := res.metrics
	mt["due.range_p50_us"] = r.lat.windowed(0.5, span)
	mt["due.range_p99_us"] = r.lat.windowed(0.99, span)
	mt["due.add_p50_us"] = w.lat.windowed(0.5, span)
	mt["due.add_p99_us"] = w.lat.windowed(0.99, span)
	mt["gen.late_us_p99"] = pct(append(w.late, r.late...), 0.99)
	mt["runtime.cpu_ns_per_item"] = stPlain.cpuPerItem
	mt["runtime.allocs_per_op"] = float64(stPlain.allocs) / float64(w.adds+r.reads)
	mt["runtime.gc_cycles"] = float64(stPlain.gcs)

	t := newTracer()
	m.primary.traced.t.Store(t)
	tw, tr := m.phase(nil, cfg.seconds/2, t, false)
	m.primary.traced.t.Store(nil)
	wall := time.Since(ph.start)
	res.attempted += tw.adds + tr.reads
	res.failed += tw.fails + tr.fails
	res.check(tw.checkErr)
	res.check(tr.checkErr)
	mt["trace.overhead_us"] = median(tr.rt.lat) - median(r.rt.lat)

	ls := t.analyze()
	mt["stream.range_over_us"] = median(ls.dur["stream.range_over"])
	mt["serve.handler_us"] = median(ls.dur["serve.local"])
	mt["serve.wire_us"] = median(ls.diff("serve.local", "stream.range_over"))
	mt["codec.parse_us"] = median(ls.dur["codec.parse"])
	mt["codec.encode_us"] = median(ls.dur["codec.encode"])
	mt["transport.us"] = median(ls.self["transport.roundtrip"])
	splitMetrics(mt, median(ls.dur["transport.roundtrip"]), mt["transport.us"], mt["serve.wire_us"], mt["stream.range_over_us"])
	mt["stream.durable_add_us"] = median(ls.dur["stream.durable_add"])
	mt["stream.advance_us"] = median(append(w.advances, tw.advances...))
	syncs := append(w.syncs, tw.syncs...)
	mt["replicate.sync_us_p50"] = median(syncs)
	mt["replicate.sync_us_p99"] = pct(syncs, 0.99)
	mt["trace.spans"] = float64(len(ls.spans))

	st1 := m.d.Stats()
	rs1 := m.repl.Status()[0]
	updates := float64(st1.Ingest.Updates - st0.Ingest.Updates)
	streamStats(mt, st0.Ingest, st1.Ingest, wall)
	mt["wal.fsyncs"] = float64(st1.WAL.Fsyncs-st0.WAL.Fsyncs) / wall.Seconds()
	if f := st1.WAL.Flushes - st0.WAL.Flushes; f > 0 {
		mt["wal.group_size"] = float64(st1.WAL.Appends-st0.WAL.Appends) / float64(f)
	}
	mt["wal.bytes_per_update"] = float64(st1.WAL.AppendedBytes-st0.WAL.AppendedBytes) / updates
	ckpts := make([]float64, len(st1.CheckpointDurations))
	for i, c := range st1.CheckpointDurations {
		ckpts[i] = float64(c) / 1e6
	}
	mt["wal.checkpoint_ms_p50"] = median(ckpts)
	if n := rs1.Syncs - rs0.Syncs; n > 0 {
		mt["replicate.delta_bytes"] = float64(rs1.DeltaBytes-rs0.DeltaBytes) / float64(n)
	}
	mt["replicate.full_syncs"] = float64(rs1.FullSyncs - rs0.FullSyncs)
	if err := m.finalChecks(res, opts); err != nil {
		return nil, err
	}
	mt["replicate.answer_mismatch"] = float64(m.mismatches)
	return res, t.write(fmt.Sprintf("mixed-seed%d", cfg.seed))
}

// prephase writes the WAL and checkpoint that set-up recovers from, as an
// untimed run that "crashes" after its last fsync: the directory is copied
// at that point, and the run's own drained window summaries become the
// answers recovery must reproduce.
func (m *mixedDriver) prephase(workDir string, opts core.Options) (string, []*core.Histogram, error) {
	dir := filepath.Join(workDir, "pre")
	d, err := stream.NewDurableSharded(mixedN, mixedK, 0, 0, opts,
		stream.DurableOptions{Dir: dir, WindowEpochs: mixedEpochs, CheckpointEvery: -1})
	if err != nil {
		return "", nil, err
	}
	pts := make([]int, mixedBatch)
	for e := 0; e < mixedPreEpochs; e++ {
		if e == mixedPreEpochs/2 {
			if err := d.Checkpoint(); err != nil {
				return "", nil, err
			}
		}
		for b := 0; b < mixedPreBatches; b++ {
			m.gen.fill(pts, nil)
			m.sent.Add(mixedBatch)
			if err := d.AddBatch(pts, nil); err != nil {
				return "", nil, err
			}
			m.record(pts)
		}
		if e < mixedPreEpochs-1 {
			if err := d.Advance(); err != nil {
				return "", nil, err
			}
			m.newEpoch()
		}
	}
	if err := d.Sync(); err != nil {
		return "", nil, err
	}
	image := filepath.Join(workDir, "image")
	if err := copyDir(dir, image); err != nil {
		return "", nil, err
	}
	want := make([]*core.Histogram, mixedEpochs+1)
	for w := range want {
		if want[w], err = d.SummaryOver(w, 0); err != nil {
			return "", nil, err
		}
	}
	if err := d.Close(); err != nil {
		return "", nil, err
	}
	return image, want, os.RemoveAll(dir)
}

// record books one accepted batch into the live epoch.
func (m *mixedDriver) record(pts []int) {
	e := &m.epochs[len(m.epochs)-1]
	e.count += int64(len(pts))
	for _, p := range pts {
		e.counts[p-1]++
	}
}

// newEpoch starts a new live epoch, recycling the point counts of the
// epoch that has just left the read window.
func (m *mixedDriver) newEpoch() {
	var counts []int32
	if n := len(m.epochs); n >= mixedWindow {
		old := &m.epochs[n-mixedWindow]
		counts, old.counts = old.counts, nil
		clear(counts)
	} else {
		counts = make([]int32, mixedN)
	}
	m.epochs = append(m.epochs, epochLog{counts: counts})
}

// windowCount is the exact unit-update count of the newest w epochs.
func (m *mixedDriver) windowCount(w int) float64 {
	var c int64
	for _, e := range m.epochs[max(0, len(m.epochs)-w):] {
		c += e.count
	}
	return float64(c)
}

// phase runs the writer and the reader for the given seconds, counting
// requests into ph (nil when not windowed). The writer sends a fixed
// number of batches, so the data a run ingests does not depend on timing.
// closed drops both schedules (capacity calibration).
func (m *mixedDriver) phase(ph *phase, seconds float64, t *tracer, closed bool) (writerRun, readerRun) {
	start := time.Now()
	if ph != nil {
		start = ph.start
	}
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	var w writerRun
	var r readerRun
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w = m.writer(ph, start, end, closed, t)
	}()
	go func() {
		defer wg.Done()
		r = m.reader(ph, start, end, closed, t)
	}()
	wg.Wait()
	return w, r
}

func (m *mixedDriver) writer(ph *phase, start, end time.Time, closed bool, t *tracer) writerRun {
	var run writerRun
	var sch schedule
	var body bytes.Buffer
	var reply []byte
	var parsed []int
	pts := make([]int, mixedBatch)
	ticks := int(end.Sub(start) / mixedAddEvery)
	var prevEnd time.Duration
	fail := func(err error) {
		if run.checkErr == nil {
			run.checkErr = err
		}
	}
	for i := 0; closed && time.Now().Before(end) || !closed && i < ticks; i++ {
		due := time.Duration(i) * mixedAddEvery
		if !closed {
			sleepUntil(start.Add(due))
		}
		m.gen.fill(pts, nil)
		id := t.newReq()
		body.Reset()
		var err error
		t.timed(id, -1, "codec.encode", func() { err = serve.EncodeAddBody(&body, pts, nil) })
		if err != nil {
			fail(err)
			return run
		}
		m.sent.Add(mixedBatch)
		sent := time.Since(start)
		run.late = append(run.late, us(sent-max(due, prevEnd)))
		var service time.Duration
		if t != nil && i%mixedProbeIn == 0 {
			// The direct path: parse the same body, then the engine's own
			// durable AddBatch, each under its span.
			t.timed(id, -1, "codec.parse", func() {
				parsed, _, err = serve.ParseAddBody(body.Bytes(), serve.DefaultMaxBatch, parsed, nil)
			})
			if err == nil {
				service = t.timed(id, -1, "stream.durable_add", func() { err = m.d.AddBatch(parsed, nil) })
			}
		} else {
			reply, err = m.postAdd(body.Bytes(), reply, id, t)
			service = time.Since(start) - sent
			if err == nil {
				err = checkAck(reply, mixedBatch)
				if err != nil {
					fail(err)
				}
			}
		}
		run.adds++
		ph.count(1)
		if err != nil {
			run.fails++
		} else {
			m.record(pts)
		}
		if !closed {
			run.lat.add(us(sch.next(due, service)), time.Since(start))
		}
		if (i+1)%mixedAdvanceTicks == 0 {
			dur := t.timed(id, -1, "stream.advance", func() { err = m.d.Advance() })
			if err != nil {
				fail(err)
				return run
			}
			m.newEpoch()
			sch.occupy(due, dur)
			run.advances = append(run.advances, us(dur))
		}
		if (i+1)%mixedSyncTicks == 0 {
			dur := t.timed(id, -1, "replicate.sync", func() { err = m.repl.SyncOnce(0) })
			if err != nil {
				fail(err)
				return run
			}
			sch.occupy(due, dur)
			run.syncs = append(run.syncs, us(dur))
			if err := m.probeReplica(false); err != nil {
				fail(err)
			}
		}
		prevEnd = time.Since(start)
	}
	return run
}

// postAdd sends one binary /add batch and returns the reply body.
func (m *mixedDriver) postAdd(body, reply []byte, id uint64, t *tracer) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, m.primary.url+"/v1/"+mixedName+"/add", bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	req.Header.Set("Content-Type", serve.ContentBatch)
	sp := t.begin(id, -1, "add.roundtrip")
	if t != nil {
		tagRequest(req, id, sp)
	}
	defer t.end(sp)
	resp, err := m.writerConn.Do(req)
	if err != nil {
		return reply, err
	}
	return readBody(resp, reply)
}

// rangePath is the windowed single-range GET for [a, b].
func rangePath(a, b int) string {
	return "/v1/" + mixedName + "/range?a=" + strconv.Itoa(a) + "&b=" + strconv.Itoa(b) +
		"&window=" + strconv.Itoa(mixedWindow)
}

// parseValue decodes a single-query reply {"value": v}.
func parseValue(body []byte) (float64, error) {
	var v struct {
		Value *float64 `json:"value"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.Value == nil {
		return 0, fmt.Errorf("range reply %q: not a value (%v)", body, err)
	}
	return *v.Value, nil
}

func (m *mixedDriver) reader(ph *phase, start, end time.Time, closed bool, t *tracer) readerRun {
	var run readerRun
	var sch schedule
	var body []byte
	var w discardWriter
	var prevEnd time.Duration
	for j := 0; ; j++ {
		due := time.Duration(j) * mixedReadEvery
		if closed && !time.Now().Before(end) || !closed && !start.Add(due).Before(end) {
			return run
		}
		if !closed {
			sleepUntil(start.Add(due))
		}
		a, b := randomRange(m.readRand, mixedN)
		path := rangePath(a, b)
		req, err := http.NewRequest(http.MethodGet, m.primary.url+path, nil)
		if err != nil {
			run.checkErr = err
			return run
		}
		id := t.newReq()
		sp := t.begin(id, -1, "transport.roundtrip")
		if t != nil {
			tagRequest(req, id, sp)
		}
		sent := time.Since(start)
		run.late = append(run.late, us(sent-max(due, prevEnd)))
		resp, err := m.readerConn.Do(req)
		if err == nil {
			body, err = readBody(resp, body)
		}
		prevEnd = time.Since(start)
		service := prevEnd - sent
		t.end(sp)
		run.reads++
		ph.count(1)
		if err != nil {
			run.fails++
			continue
		}
		run.rt.add(us(service), prevEnd)
		if !closed {
			run.lat.add(us(sch.next(due, service)), prevEnd)
		}
		v, err := parseValue(body)
		if err == nil {
			err = checkLiveRange(v, float64(m.sent.Load()))
		}
		if err != nil && run.checkErr == nil {
			run.checkErr = err
		}
		if t != nil && j%mixedProbeIn == 0 {
			// The same read in process: the engine call alone, then the
			// whole server handler on an in-memory writer.
			root := t.begin(id, -1, "probe")
			t.timed(id, root, "stream.range_over", func() {
				_, err = m.d.EstimateRangeOver(a, b, mixedWindow, 0)
			})
			if err != nil && run.checkErr == nil {
				run.checkErr = err
			}
			w.reset()
			local := httptestRequest(path)
			t.timed(id, root, "serve.local", func() { m.primaryLocal.ServeHTTP(&w, local) })
			t.end(root)
			if w.status != http.StatusOK && run.checkErr == nil {
				run.checkErr = fmt.Errorf("in-process range read: status %d", w.status)
			}
		}
	}
}

// httptestRequest builds a GET for an in-process handler call.
func httptestRequest(path string) *http.Request {
	req, _ := http.NewRequest(http.MethodGet, "http://local"+path, nil)
	return req
}

// localValue answers one windowed range read through a handler in process.
func localValue(h http.Handler, w *discardWriter, a, b int) (float64, error) {
	w.reset()
	h.ServeHTTP(w, httptestRequest(rangePath(a, b)))
	if w.status != http.StatusOK {
		return 0, fmt.Errorf("range [%d, %d]: status %d: %s", a, b, w.status, w.body)
	}
	return parseValue(w.body)
}

// probeReplica compares the replica's windowed answers with the primary's
// right after a sync, with no write in between. The full-domain total is
// exact on both and must agree to relTol. A sub-range answer is exact only
// while the updates it covers sit in pending logs: if the primary installs a
// compaction after the sync captured it, the two nodes answer from
// different merges. Such answers are counted as mismatches (any bitwise
// difference), not failed, unless strict: after a drain no compaction is in
// flight and every answer must agree.
func (m *mixedDriver) probeReplica(strict bool) error {
	var w discardWriter
	for p := 0; p <= mixedProbes; p++ {
		a, b := 1, mixedN
		if p > 0 {
			a, b = randomRange(m.probeRand, mixedN)
		}
		pv, err := localValue(m.primaryLocal, &w, a, b)
		if err != nil {
			return err
		}
		rv, err := localValue(m.replicaLocal, &w, a, b)
		if err != nil {
			return fmt.Errorf("replica: %w", err)
		}
		if math.Float64bits(pv) != math.Float64bits(rv) {
			m.mismatches++
		}
		if p == 0 || strict {
			if err := checkTotal(fmt.Sprintf("replica answer on [%d, %d]", a, b), rv, pv); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalChecks runs once the load has stopped: exact window totals, the
// window summary's mass and accuracy, and a last replica comparison. Failed
// checks are recorded in res; the error return is for failed calls.
func (m *mixedDriver) finalChecks(res *result, opts core.Options) error {
	for w := 1; w <= mixedEpochs; w++ {
		got, err := m.d.EstimateRangeOver(1, mixedN, w, 0)
		if err != nil {
			return err
		}
		res.check(checkTotal(fmt.Sprintf("window %d total", w), got, m.windowCount(w)))
	}
	exact := make([]float64, mixedN)
	for _, e := range m.epochs[len(m.epochs)-mixedWindow:] {
		for i, c := range e.counts {
			exact[i] += float64(c)
		}
	}
	start := time.Now()
	h, err := m.d.SummaryOver(mixedWindow, 0)
	if err != nil {
		return err
	}
	res.metrics["stream.summary_ms"] = float64(time.Since(start)) / 1e6
	if err := checkSummary(h, m.windowCount(mixedWindow), mixedK, opts); err != nil {
		res.check(fmt.Errorf("window summary: %w", err))
	}
	errL2 := h.L2DistToDense(exact)
	res.metrics["err_rel"] = errL2 / l2(exact)
	res.metrics["stream.summary_pieces"] = float64(h.NumPieces())
	start = time.Now()
	offline, err := core.ConstructHistogram(sparse.FromDense(exact), mixedK, opts)
	if err != nil {
		return err
	}
	res.metrics["core.fit_ms"] = float64(time.Since(start)) / 1e6
	res.metrics["stream.summary_err_ratio"] = errL2 / offline.Error
	// SummaryOver drained the primary; once synced, the replica holds the
	// same drained state and must answer every probe alike.
	if err := m.repl.SyncOnce(0); err != nil {
		return err
	}
	res.check(m.probeReplica(true))
	return nil
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
