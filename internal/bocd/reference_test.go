package bocd

import (
	"math"
	"sort"
	"time"
)

// This file freezes the detector and splitter as they stood before the
// count-indexed constants table, the early-stopping splitter and the mass
// floor: five posterior columns, two Lgamma and one Log per hypothesis per
// step, every hypothesis kept up to the run-length cap, every gap stepped.
// It is the only unpruned detector in the tree and the oracle the
// bit-identity tests (and any later float-moving change to Step) gate
// against, so nothing here may share arithmetic or a constant with the
// production code — only nextBuf, which moves no float, is reused.

// refConfig is the operating point the reference runs at, written out here
// rather than read from the production constants, so the bit-identity
// tests pin the hazard, the threshold, the prior and the run-length cap
// and the fixtures pin the splitter's two factors. maxRunLength is the one
// field a test changes: a short cap makes ordinary bursts fold.
type refConfig struct {
	hazard, threshold          float64
	maxRunLength               int
	mu0, kappa0, alpha0, beta0 float64
	minSeparation, mergeFactor float64
}

// refDefaults is the shipped operating point.
var refDefaults = refConfig{
	hazard:        1.0 / 100,
	threshold:     0.95,
	maxRunLength:  512,
	mu0:           0,
	kappa0:        0.1,
	alpha0:        1,
	beta0:         1,
	minSeparation: 4,
	mergeFactor:   1.5,
}

// refCapped is refDefaults with the run-length cap at 16.
var refCapped = func() refConfig {
	c := refDefaults
	c.maxRunLength = 16
	return c
}()

type refDetector struct {
	cfg     refConfig
	logH    float64 // log hazard
	log1mH  float64 // log(1 - hazard)
	logp    []float64
	kappa   []float64
	mu      []float64
	alpha   []float64
	beta    []float64
	scratch []float64
	// Spare buffers Step writes the next posterior into before swapping.
	spareLogp  []float64
	spareKappa []float64
	spareMu    []float64
	spareAlpha []float64
	spareBeta  []float64
	n          int
}

func newRefDetector(cfg refConfig) *refDetector {
	d := &refDetector{
		cfg:    cfg,
		logH:   math.Log(cfg.hazard),
		log1mH: math.Log1p(-cfg.hazard),
	}
	d.reset()
	return d
}

func (d *refDetector) reset() {
	d.logp = append(d.logp[:0], 0) // P(r_0 = 0) = 1
	d.kappa = append(d.kappa[:0], d.cfg.kappa0)
	d.mu = append(d.mu[:0], d.cfg.mu0)
	d.alpha = append(d.alpha[:0], d.cfg.alpha0)
	d.beta = append(d.beta[:0], d.cfg.beta0)
	d.n = 0
}

func (d *refDetector) Reset() { d.reset() }

// studentTLogPDF returns the log density of x under a Student-t with nu
// degrees of freedom, the given location, and scale sigma (not squared).
func studentTLogPDF(x, nu, loc, sigma float64) float64 {
	z := (x - loc) / sigma
	return refLgamma((nu+1)/2) - refLgamma(nu/2) -
		0.5*math.Log(nu*math.Pi) - math.Log(sigma) -
		(nu+1)/2*math.Log1p(z*z/nu)
}

func refLgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func (d *refDetector) Step(x float64) float64 {
	n := len(d.logp)
	// Predictive log-probability of x under each run-length hypothesis.
	d.scratch = nextBuf(d.scratch, n)
	logpred := d.scratch
	for r := 0; r < n; r++ {
		nu := 2 * d.alpha[r]
		scale := math.Sqrt(d.beta[r] * (d.kappa[r] + 1) / (d.alpha[r] * d.kappa[r]))
		logpred[r] = studentTLogPDF(x, nu, d.mu[r], scale)
	}
	priorScale := math.Sqrt(d.cfg.beta0 * (d.cfg.kappa0 + 1) / (d.cfg.alpha0 * d.cfg.kappa0))
	logPriorPred := studentTLogPDF(x, 2*d.cfg.alpha0, d.cfg.mu0, priorScale)

	// Growth probabilities: r -> r+1; the change-point hypothesis pools the
	// hazard mass of every run and predicts x from the prior. The new
	// posterior is written into the spare buffers, which never alias the
	// current ones.
	newLogp := nextBuf(d.spareLogp, n+1)
	for r := 0; r < n; r++ {
		newLogp[r+1] = d.logp[r] + logpred[r] + d.log1mH
	}
	newLogp[0] = refLogSumExp(d.logp) + d.logH + logPriorPred

	// Normalize.
	total := refLogSumExp(newLogp)
	for i := range newLogp {
		newLogp[i] -= total
	}

	// Posterior parameter update: run length r+1 inherits stats of r
	// updated with x; run length 0 restarts from the prior updated with x
	// (its segment contains exactly x).
	newKappa := nextBuf(d.spareKappa, n+1)
	newMu := nextBuf(d.spareMu, n+1)
	newAlpha := nextBuf(d.spareAlpha, n+1)
	newBeta := nextBuf(d.spareBeta, n+1)
	k0, m0, a0, b0 := d.cfg.kappa0, d.cfg.mu0, d.cfg.alpha0, d.cfg.beta0
	newKappa[0] = k0 + 1
	newMu[0] = (k0*m0 + x) / (k0 + 1)
	newAlpha[0] = a0 + 0.5
	newBeta[0] = b0 + k0*(x-m0)*(x-m0)/(2*(k0+1))
	for r := 0; r < n; r++ {
		k, m, a, b := d.kappa[r], d.mu[r], d.alpha[r], d.beta[r]
		newKappa[r+1] = k + 1
		newMu[r+1] = (k*m + x) / (k + 1)
		newAlpha[r+1] = a + 0.5
		newBeta[r+1] = b + k*(x-m)*(x-m)/(2*(k+1))
	}

	d.spareLogp, d.spareKappa, d.spareMu, d.spareAlpha, d.spareBeta =
		d.logp, d.kappa, d.mu, d.alpha, d.beta
	d.logp, d.kappa, d.mu, d.alpha, d.beta = newLogp, newKappa, newMu, newAlpha, newBeta
	d.truncate()
	d.n++
	return math.Exp(d.logp[0])
}

// truncate caps the run-length distribution at maxRunLength by folding the
// tail mass into the final (longest) hypothesis.
func (d *refDetector) truncate() {
	max := d.cfg.maxRunLength
	if len(d.logp) <= max {
		return
	}
	tail := refLogSumExp(d.logp[max-1:])
	d.logp = d.logp[:max]
	d.logp[max-1] = tail
	// Keep the sufficient statistics of the longest run for the folded bucket.
	last := len(d.kappa) - 1
	d.kappa[max-1] = d.kappa[last]
	d.mu[max-1] = d.mu[last]
	d.alpha[max-1] = d.alpha[last]
	d.beta[max-1] = d.beta[last]
	d.kappa = d.kappa[:max]
	d.mu = d.mu[:max]
	d.alpha = d.alpha[:max]
	d.beta = d.beta[:max]
}

func refLogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

func refSeparationThreshold(gaps []float64, minRatio float64) (float64, bool) {
	sorted := make([]float64, len(gaps))
	copy(sorted, gaps)
	sort.Float64s(sorted)
	bestRatio, bestAt := 0.0, -1
	for i := len(sorted) / 2; i+1 < len(sorted); i++ {
		lo, hi := sorted[i], sorted[i+1]
		if lo <= 0 {
			continue
		}
		if ratio := hi / lo; ratio > bestRatio {
			bestRatio, bestAt = ratio, i
		}
	}
	if bestAt < 0 || bestRatio < minRatio {
		return 0, false
	}
	return math.Sqrt(sorted[bestAt] * sorted[bestAt+1]), true
}

func refMedianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// refSplitTimes is the full-scan splitter: it steps a refDetector over every
// gap, including those after the last one that could still be a boundary.
func refSplitTimes(times []time.Time, cfg refConfig) []Segment {
	n := len(times)
	if n == 0 {
		return nil
	}
	if n <= 2 {
		return []Segment{{Lo: 0, Hi: n}}
	}

	gaps := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		gaps[i] = times[i+1].Sub(times[i]).Seconds()
	}
	guard, separated := refSeparationThreshold(gaps, cfg.minSeparation)
	if !separated {
		return []Segment{{Lo: 0, Hi: n}}
	}

	median := refMedianOf(gaps)
	if median <= 0 {
		median = 1e-9
	}
	obs := make([]float64, len(gaps))
	for i, g := range gaps {
		v := g / median
		if v < 1 {
			v = 1
		}
		obs[i] = v
	}

	det := newRefDetector(cfg)
	var segments []Segment
	lo := 0
	for i, x := range obs {
		p := det.Step(x)
		if i == 0 {
			continue
		}
		if p > det.cfg.threshold && gaps[i] >= guard {
			segments = append(segments, Segment{Lo: lo, Hi: i + 1})
			lo = i + 1
			det.Reset()
		}
	}
	segments = append(segments, Segment{Lo: lo, Hi: n})
	return refMergeImplausible(times, segments, cfg.mergeFactor)
}

func refMergeImplausible(times []time.Time, segments []Segment, factor float64) []Segment {
	if len(segments) <= 1 {
		return segments
	}
	out := segments[:1]
	for _, next := range segments[1:] {
		cur := &out[len(out)-1]
		gap := times[next.Lo].Sub(times[cur.Hi-1]).Seconds()
		spanCur := times[cur.Hi-1].Sub(times[cur.Lo]).Seconds()
		spanNext := times[next.Hi-1].Sub(times[next.Lo]).Seconds()
		span := spanCur
		if spanNext > span {
			span = spanNext
		}
		if gap < factor*span {
			cur.Hi = next.Hi
		} else {
			out = append(out, next)
		}
	}
	return out
}
