package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	histapprox "repro"
	"repro/internal/core"
)

// The output checks below hold under any compaction or install timing:
// they test mass and error guarantees and the server's own contract, never
// bit-equality with a separately timed run (except where the system
// promises it, as for recovery).

// relTol is the relative tolerance of the mass and equality checks.
const relTol = 1e-9

// within reports whether got equals want to relTol relative (absolute
// for a zero want).
func within(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// checkReply tests a batch response against the in-process answer
// precomputed for its body, byte for byte.
func checkReply(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("batch reply differs from the in-process answer (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// checkSummary tests a drained summary: it conserves the net mass of every
// update ingested, and has at most the merging bound of pieces for k.
func checkSummary(h *core.Histogram, netMass float64, k int, opts core.Options) error {
	if m := h.Mass(); !within(m, netMass) {
		return fmt.Errorf("summary mass %v, want net mass %v", m, netMass)
	}
	if p, bound := h.NumPieces(), opts.TargetPieces(k); p > bound {
		return fmt.Errorf("summary has %d pieces, bound for k=%d is %d", p, k, bound)
	}
	return nil
}

// checkAck tests an /add acknowledgement: {"ingested": n} for a batch of n.
func checkAck(body []byte, n int) error {
	var ack struct {
		Ingested *int `json:"ingested"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("add acknowledgement %q: %w", body, err)
	}
	if ack.Ingested == nil || *ack.Ingested != n {
		return fmt.Errorf("add acknowledgement %q, want %d ingested", body, n)
	}
	return nil
}

// checkLiveRange tests a live windowed answer over unit-weight updates: it
// lies in [0, sent], sent being every unit update submitted so far.
func checkLiveRange(v, sent float64) error {
	slack := relTol * math.Max(1, sent)
	if v < -slack || v > sent+slack {
		return fmt.Errorf("live windowed answer %v outside [0, %v]", v, sent)
	}
	return nil
}

// checkTotal tests an exact total (window mass, replica answer) to relTol.
func checkTotal(what string, got, want float64) error {
	if !within(got, want) {
		return fmt.Errorf("%s = %v, want %v", what, got, want)
	}
	return nil
}

// sameHistogram tests two histograms for bit-identical pieces.
func sameHistogram(got, want *core.Histogram) error {
	gp, wp := got.Pieces(), want.Pieces()
	if len(gp) != len(wp) {
		return fmt.Errorf("%d pieces, want %d", len(gp), len(wp))
	}
	for i := range gp {
		if gp[i].Interval != wp[i].Interval || math.Float64bits(gp[i].Value) != math.Float64bits(wp[i].Value) {
			return fmt.Errorf("piece %d is %v=%v, want %v=%v", i, gp[i].Interval, gp[i].Value, wp[i].Interval, wp[i].Value)
		}
	}
	return nil
}

// certificate is the small-instance check of the paper's guarantee: on a
// seeded n = 2048 vector, Fit's error is at most √(1+δ) times the exact
// dynamic program's, with at most (2+2/δ)k+γ pieces.
func certificate(seed uint64) error {
	const n, k = 2048, 12
	data := frequencyVector(newRand(seed, 99), n)
	opts := histapprox.DefaultOptions()
	h, _, err := histapprox.Fit(data, k, &opts)
	if err != nil {
		return err
	}
	_, opt, err := histapprox.FitExact(data, k)
	if err != nil {
		return err
	}
	return checkCertificate(h.NumPieces(), h.L2DistToDense(data), opt, k, opts)
}

func checkCertificate(pieces int, fitErr, optErr float64, k int, opts core.Options) error {
	if bound := math.Sqrt(1+opts.Delta) * optErr; fitErr > bound*(1+relTol) {
		return fmt.Errorf("certificate: Fit error %v exceeds √(1+δ)·opt = %v", fitErr, bound)
	}
	if bound := opts.TargetPieces(k); pieces > bound {
		return fmt.Errorf("certificate: %d pieces exceed the bound %d", pieces, bound)
	}
	return nil
}

// l2 returns the Euclidean norm of xs.
func l2(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}
