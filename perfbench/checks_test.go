package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/serve"
)

// Every output check must reject a deliberately wrong answer.

func TestCheckReplyRejectsWrongAnswer(t *testing.T) {
	want := serve.AppendValuesBody(nil, []float64{1, 2.5, 3})
	if err := checkReply(want, want); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	wrong := serve.AppendValuesBody(nil, []float64{1, 2.5, math.Nextafter(3, 4)})
	if checkReply(wrong, want) == nil {
		t.Fatal("reply off by one ulp accepted")
	}
}

func TestCheckSummaryRejectsLostMassAndExtraPieces(t *testing.T) {
	opts := core.DefaultOptions()
	h := core.NewHistogram(10, interval.Partition{interval.New(1, 4), interval.New(5, 10)}, []float64{1, 2})
	if err := checkSummary(h, 16, 1, opts); err != nil {
		t.Fatalf("correct summary rejected: %v", err)
	}
	if checkSummary(h, 16.001, 1, opts) == nil {
		t.Fatal("summary missing mass accepted")
	}
	var p interval.Partition
	var vals []float64
	for i := 1; i <= 10; i++ {
		p = append(p, interval.New(i, i))
		vals = append(vals, 1)
	}
	if checkSummary(core.NewHistogram(10, p, vals), 10, 1, opts) == nil {
		t.Fatalf("summary with %d pieces accepted for k=1 (bound %d)", len(p), opts.TargetPieces(1))
	}
}

func TestCheckAckRejectsWrongCount(t *testing.T) {
	if err := checkAck([]byte("{\"ingested\":512}\n"), 512); err != nil {
		t.Fatalf("correct ack rejected: %v", err)
	}
	for _, body := range []string{`{"ingested":511}`, `{}`, `not json`} {
		if checkAck([]byte(body), 512) == nil {
			t.Errorf("ack %q accepted", body)
		}
	}
}

func TestCheckLiveRangeRejectsOutOfBounds(t *testing.T) {
	for _, v := range []float64{0, 17.5, 100} {
		if err := checkLiveRange(v, 100); err != nil {
			t.Errorf("answer %v rejected: %v", v, err)
		}
	}
	for _, v := range []float64{-1, 100.5} {
		if checkLiveRange(v, 100) == nil {
			t.Errorf("answer %v outside [0, 100] accepted", v)
		}
	}
}

func TestCheckTotalRejectsRelativeError(t *testing.T) {
	if err := checkTotal("x", 1e6*(1+1e-12), 1e6); err != nil {
		t.Fatalf("rounding-level difference rejected: %v", err)
	}
	if checkTotal("x", 1e6+1, 1e6) == nil {
		t.Fatal("total off by one accepted")
	}
}

func TestSameHistogramRejectsOneULP(t *testing.T) {
	p := interval.Partition{interval.New(1, 4), interval.New(5, 10)}
	a := core.NewHistogram(10, p, []float64{1, 2})
	if err := sameHistogram(a, core.NewHistogram(10, p, []float64{1, 2})); err != nil {
		t.Fatalf("identical histograms rejected: %v", err)
	}
	if sameHistogram(a, core.NewHistogram(10, p, []float64{1, math.Nextafter(2, 3)})) == nil {
		t.Fatal("histogram one ulp off accepted")
	}
}

func TestCertificate(t *testing.T) {
	if err := certificate(1); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	if checkCertificate(10, 1.5, 1, 4, opts) == nil {
		t.Fatal("error above √(1+δ)·opt accepted")
	}
	if checkCertificate(opts.TargetPieces(4)+1, 1, 1, 4, opts) == nil {
		t.Fatal("pieces above the bound accepted")
	}
}

func TestScheduleCountsStallsFromDue(t *testing.T) {
	var s schedule
	ms := time.Millisecond
	// On time, then a 5 ms stall: the next two operations, due at 1 and
	// 2 ms, wait behind it.
	for i, c := range []struct{ due, service, want time.Duration }{
		{0, ms / 10, ms / 10},
		{ms, 5 * ms, 5 * ms},
		{2 * ms, ms / 10, 4*ms + ms/10},
		{3 * ms, ms / 10, 3*ms + 2*ms/10},
		{10 * ms, ms / 10, ms / 10},
	} {
		if got := s.next(c.due, c.service); got != c.want {
			t.Errorf("op %d: latency %v, want %v", i, got, c.want)
		}
	}
}

func TestWindowedMedianIgnoresOneBadWindow(t *testing.T) {
	var s series
	for w := 0; w < 5; w++ {
		v := 10.0
		if w == 2 {
			v = 1000
		}
		for i := 0; i < 100; i++ {
			s.add(v, time.Duration(w)*window+time.Duration(i)*time.Millisecond)
		}
	}
	if got := s.windowed(0.5, 5*window); got != 10 {
		t.Fatalf("windowed median %v, want 10", got)
	}
}

// The metric lists must match the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program %s [%s]",
					c.what, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
