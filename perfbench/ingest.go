package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// The ingest workload: one producer streams a drifting skewed sequence
// (70 % moving hot window, 30 % uniform, 10 % deletes) into a long-lived
// stream.Sharded through AddBatch calls of 1024 updates. A round of
// ingestRound updates ends with Summary(), so a round's time includes the
// deferred compaction work, not just how fast updates are accepted.
// Stream compaction and core merging do almost all the work; serve is idle.
const (
	ingestN       = 1 << 20
	ingestK       = 64
	ingestBatch   = 1024
	ingestRound   = 64 * ingestBatch
	ingestPreload = 32 * ingestRound
	// ingestWarmRounds is a fixed round count, so the accuracy figures
	// taken after warm-up describe the same update prefix on every run.
	ingestWarmRounds = 64
)

// ingestDriver holds the engine, the generator and the exact bookkeeping.
type ingestDriver struct {
	s       *stream.Sharded
	gen     *updateStream
	points  []int
	weights []float64
	net     float64 // exact net mass ingested
	last    *core.Histogram
}

func runIngest(cfg *config) (*result, error) {
	opts := core.DefaultOptions()
	res := &result{metrics: map[string]float64{}}
	res.check(certificate(cfg.seed))

	// Set-up: stream a fixed preload into a fresh engine, several times.
	prePoints := make([]int, ingestPreload)
	preWeights := make([]float64, ingestPreload)
	gen := newUpdateStream(newRand(cfg.seed, 3), ingestN, 0.1)
	gen.fill(prePoints, preWeights)
	var setups []float64
	var s *stream.Sharded
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		var err error
		if s, err = stream.NewSharded(ingestN, ingestK, 0, 0, opts); err != nil {
			return nil, err
		}
		for i := 0; i < ingestPreload; i += ingestBatch {
			if err := s.AddBatch(prePoints[i:i+ingestBatch], preWeights[i:i+ingestBatch]); err != nil {
				return nil, err
			}
		}
		if _, err := s.Summary(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.metrics["setup_s"] = median(setups)
	exact := make([]float64, ingestN)
	d := &ingestDriver{s: s, gen: gen, points: make([]int, ingestRound), weights: make([]float64, ingestRound)}
	for i, p := range prePoints {
		exact[p-1] += preWeights[i]
		d.net += preWeights[i]
	}
	prePoints, preWeights = nil, nil

	// Warm-up: a fixed number of rounds, then the accuracy of the drained
	// summary against the exact vector and against offline merging.
	for r := 0; r < ingestWarmRounds; r++ {
		if _, err := d.round(nil); err != nil {
			return nil, err
		}
		for i, p := range d.points {
			exact[p-1] += d.weights[i]
		}
		res.check(checkSummary(d.last, d.net, ingestK, opts))
	}
	errL2 := d.last.L2DistToDense(exact)
	res.metrics["err_rel"] = errL2 / l2(exact)
	start := time.Now()
	offline, err := core.ConstructHistogram(sparse.FromDense(exact), ingestK, opts)
	if err != nil {
		return nil, err
	}
	res.metrics["core.fit_ms"] = float64(time.Since(start)) / 1e6
	res.metrics["stream.summary_err_ratio"] = errL2 / offline.Error
	exact = nil

	st0 := s.Stats()
	ph := startPhase()
	plainSeconds := cfg.seconds
	if cfg.trace {
		plainSeconds /= 2
	}
	plain, err := d.rounds(ph, plainSeconds, nil, res)
	if err != nil {
		return nil, err
	}
	stPlain := ph.end()
	res.attempted = len(plain.lat) * ingestRound / ingestBatch
	if !cfg.trace {
		span := time.Duration(plainSeconds * float64(time.Second))
		res.metrics["p90_us"] = plain.windowed(0.9, span)
		res.metrics["heap_peak_mb"] = stPlain.heapPeakMiB
		return res, nil
	}

	t := newTracer()
	traced, err := d.rounds(nil, cfg.seconds/2, t, res)
	if err != nil {
		return nil, err
	}
	wall := time.Since(ph.start)
	st1 := s.Stats()
	res.attempted += len(traced.lat) * ingestRound / ingestBatch
	ls := t.analyze()
	m := res.metrics
	m["stream.add_batch_us_p50"] = median(ls.dur["stream.add_batch"])
	m["stream.add_batch_us_p99"] = pct(ls.dur["stream.add_batch"], 0.99)
	m["stream.summary_ms"] = median(ls.dur["stream.summary"]) / 1e3
	streamStats(m, st0, st1, wall)
	m["stream.summary_pieces"] = float64(d.last.NumPieces())
	m["runtime.cpu_ns_per_item"] = stPlain.cpuPerItem
	m["runtime.allocs_per_op"] = float64(stPlain.allocs) / float64(len(plain.lat))
	m["runtime.gc_cycles"] = float64(stPlain.gcs)
	m["trace.overhead_us"] = median(traced.lat) - median(plain.lat)
	m["trace.spans"] = float64(len(ls.spans))
	return res, t.write(fmt.Sprintf("ingest-seed%d", cfg.seed))
}

// rounds runs timed rounds for the given seconds, counting updates into ph
// (nil when not windowed), and returns their durations, checking every
// round's summary.
func (d *ingestDriver) rounds(ph *phase, seconds float64, t *tracer, res *result) (*series, error) {
	var lat series
	start := time.Now()
	if ph != nil {
		start = ph.start
	}
	opts := core.DefaultOptions()
	for end := deadline(seconds); time.Now().Before(end); {
		dur, err := d.round(t)
		if err != nil {
			return nil, err
		}
		lat.add(us(dur), time.Since(start))
		ph.count(ingestRound)
		res.check(checkSummary(d.last, d.net, ingestK, opts))
	}
	return &lat, nil
}

// round generates ingestRound updates (untimed), then times their AddBatch
// calls and the Summary() that ends the round.
func (d *ingestDriver) round(t *tracer) (time.Duration, error) {
	d.gen.fill(d.points, d.weights)
	for _, w := range d.weights {
		d.net += w
	}
	id := t.newReq()
	root := t.begin(id, -1, "round")
	start := time.Now()
	for i := 0; i < len(d.points); i += ingestBatch {
		sp := t.begin(id, root, "stream.add_batch")
		if err := d.s.AddBatch(d.points[i:i+ingestBatch], d.weights[i:i+ingestBatch]); err != nil {
			return 0, err
		}
		t.end(sp)
	}
	sp := t.begin(id, root, "stream.summary")
	h, err := d.s.Summary()
	t.end(sp)
	dur := time.Since(start)
	t.end(root)
	d.last = h
	return dur, err
}

// streamStats records the engine's compaction figures between two Stats
// snapshots taken wall apart: compactions and ingest pauses per million
// updates, the share of the time producers spent paused, and the median
// compaction time.
func streamStats(m map[string]float64, st0, st1 stream.IngestStats, wall time.Duration) {
	updates := float64(st1.Updates - st0.Updates)
	m["stream.compactions"] = float64(st1.Compactions-st0.Compactions) / updates * 1e6
	pauses := st1.PauseCount - st0.PauseCount
	m["stream.pause_count"] = float64(pauses) / updates * 1e6
	if len(st1.Pauses) > 0 {
		var sum time.Duration
		for _, p := range st1.Pauses {
			sum += p
		}
		// Stats keeps only recent pause durations, so the share is the
		// recent mean pause times the exact pause count.
		m["stream.pause_share"] = float64(sum) / float64(len(st1.Pauses)) * float64(pauses) / float64(wall)
	}
	compacts := make([]float64, len(st1.CompactionDurations))
	for i, c := range st1.CompactionDurations {
		compacts[i] = us(c)
	}
	m["stream.compact_us_p50"] = median(compacts)
}
