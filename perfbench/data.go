package main

import (
	"math"
	"math/rand/v2"
)

// newRand returns the deterministic generator for one input stream of a
// run: the same seed and stream always give the same numbers.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// frequencyVector builds the query workload's data: a skewed, piecewise
// smooth frequency vector over [1, n] — random plateaus, a few Gaussian
// bumps, and counting noise — so a k-piece fit has real work to do.
func frequencyVector(r *rand.Rand, n int) []float64 {
	freq := make([]float64, n)
	// Many features, so that the fit's relative error is a property of the
	// generator rather than of one seed's few largest plateaus.
	steps := 2000
	pos := 0
	for s := 0; s < steps; s++ {
		end := n
		if s < steps-1 {
			end = min(n, pos+1+r.IntN(2*n/steps))
		}
		level := math.Exp(r.NormFloat64())
		for ; pos < end; pos++ {
			freq[pos] = level
		}
	}
	for b := 0; b < 32; b++ {
		c := r.Float64() * float64(n)
		w := float64(n) / 400 * (0.2 + r.Float64())
		h := 20 * r.Float64()
		lo, hi := max(0, int(c-4*w)), min(n, int(c+4*w))
		for i := lo; i < hi; i++ {
			z := (float64(i) - c) / w
			freq[i] += h * math.Exp(-z*z/2)
		}
	}
	for i := range freq {
		freq[i] = math.Round(freq[i] * (1 + 0.3*r.Float64()))
	}
	return freq
}

// randomRange draws one range [a, b] in [1, n] with a log-uniform length.
func randomRange(r *rand.Rand, n int) (a, b int) {
	length := int(math.Exp(r.Float64() * math.Log(float64(n))))
	length = min(max(length, 1), n)
	a = 1 + r.IntN(n-length+1)
	return a, a + length - 1
}

// updateStream generates a drifting skewed update sequence over [1, n]:
// hotShare of the inserts fall in a hot window that slides across the
// domain, the rest are uniform; a deleteShare of the updates delete
// (weight −1) one recent insert, each insert at most once, so the net
// vector stays a count.
type updateStream struct {
	r           *rand.Rand
	n           int
	hotShare    float64
	deleteShare float64
	hotWidth    int
	drift       float64 // hot-window movement per update
	center      float64
	// recent is a bag of inserts that may still be deleted.
	recent [4096]int
	filled int
	next   int
}

func newUpdateStream(r *rand.Rand, n int, deleteShare float64) *updateStream {
	return &updateStream{
		r: r, n: n, hotShare: 0.7, deleteShare: deleteShare,
		hotWidth: 4096, drift: float64(n) / (1 << 24), center: r.Float64() * float64(n),
	}
}

// fill writes len(points) updates; weights is nil for insert-only streams.
func (g *updateStream) fill(points []int, weights []float64) {
	for i := range points {
		if weights != nil && g.filled > 0 && g.r.Float64() < g.deleteShare {
			j := g.r.IntN(g.filled)
			points[i] = g.recent[j]
			weights[i] = -1
			g.filled--
			g.recent[j] = g.recent[g.filled]
			continue
		}
		g.center += g.drift
		if g.center >= float64(g.n) {
			g.center -= float64(g.n)
		}
		var p int
		if g.r.Float64() < g.hotShare {
			p = int(g.center) + g.r.IntN(g.hotWidth)
			if p >= g.n {
				p -= g.n
			}
			p++
		} else {
			p = 1 + g.r.IntN(g.n)
		}
		points[i] = p
		if weights != nil {
			weights[i] = 1
			if g.filled < len(g.recent) {
				g.recent[g.filled] = p
				g.filled++
			} else {
				g.recent[g.next] = p
				g.next = (g.next + 1) % len(g.recent)
			}
		}
	}
}
