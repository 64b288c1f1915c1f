// Package bocd implements Bayesian Online Changepoint Detection
// (Adams & MacKay, 2007), the change-point detector LLMPrism uses to divide
// network flow sequences into training steps (§IV-B, §IV-C of the paper).
//
// The detector maintains a posterior distribution over the current
// "run length" r_t (time since the last change-point). Observations are
// modelled as Gaussian with unknown mean and variance under a Normal-Gamma
// conjugate prior, giving a Student-t predictive distribution. A constant
// hazard function governs change-point arrival. The paper reports a
// change-point whenever P(r_t = 0) exceeds a threshold.
//
// The detector runs at one operating point, so its settings are constants:
// hazard 1/100, threshold 0.95 (the paper's), at most maxRunLength = 512
// run-length hypotheses, and the Normal-Gamma prior mu0 = 0, kappa0 = 0.1,
// alpha0 = 1, beta0 = 1. The small kappa0 keeps the prior on the mean
// vague, so the change-point hypothesis (which predicts from the prior)
// explains genuine regime shifts far better than the incumbent run
// hypotheses and P(r_t = 0) saturates.
//
// All computation is in log space. The run-length distribution is truncated
// at maxRunLength, and hypotheses whose mass has fallen below a fixed floor
// are dropped, so a step costs what the live part of the posterior costs.
//
// # The count column and the mass floor
//
// Under the Normal-Gamma update kappa and alpha never see the data: a
// hypothesis that has absorbed c observations has kappa = kappa0 + c and
// alpha = alpha0 + c/2, whatever the observations were. So the Detector keeps
// only the data-dependent columns (log-probability, mu, beta) plus c itself,
// and reads kappa, alpha and every expression over them — among them the
// Student-t normalizer, two Lgamma and a Log — from a table indexed by c,
// built once for the package.
// (Step counts the observation that opened a run, see the convention there:
// the change-point hypothesis leaves Step with c = 1. The longest run, last
// in the posterior, has absorbed every observation since New or Reset, N()
// of them, through the truncation fold as before it.)
//
// What is exact, bit for bit against the five-column implementation that
// keeps every hypothesis (reference_test.go, TestStepBitIdenticalToReference):
//
//   - The table. Entry c+1 is built from entry c by the same float64
//     `kappa + 1` and `alpha + 0.5` the per-hypothesis update performed c
//     times over, and each derived constant is the same expression, in the
//     same association, over those same inputs.
//   - Survivors' arithmetic. A hypothesis Step still holds has the logp, mu
//     and beta the reference holds for the run of that count, and P(r_t = 0)
//     is the reference's: dropping is the only thing pruning does, nothing
//     is renormalized after it, and terms of relative size e^-60 vanish in
//     float64 sums anyway (2^-53 is e^-36.7).
//   - Fold timing. A run folds into the longest when its own count reaches
//     maxRunLength — not when the array does, which pruning has made shorter
//     than the reference's — so the same run folds at the same step.
//
// What is not: after normalization Step drops every hypothesis whose
// log-mass is below pruneFloor = -60, except the change-point hypothesis and
// the longest run, and that mass is gone. The longest run is exempt because
// it is the fold's target (the reference folds live mass onto its statistics
// however dead it is); its own mass is the one float that can differ from
// the reference, short by the dropped runs the reference has folded into it.
//
// The floor was measured on the SplitTimes inputs of one saturate-hop
// benchmark run (one-minute windows: 9 792 sequences, 8.6 M observations),
// where an optimizer pause inside every step — a change-point the separation
// guard rejects, so SplitTimes does not Reset — kills every run that absorbs
// it and 70% of the unpruned posterior is below e^-60 (83% below e^-40).
// Dead is not gone for good: there, runs climbed back from e^-32.9 to over
// 5% of the posterior, from e^-39.8 to over 1e-3 and from e^-46.6 to over
// 1e-6 (a run that absorbed one pause predicts the next better than anything
// younger), and fuzzing found a sequence whose segments change at any floor
// from -40 up (TestPruneFloorMargin). -60 leaves 13 nats below the deepest
// return seen; Adams & MacKay's suggested 1e-4 is not a candidate. A change
// that moves the floor, reassociates an expression above or renormalizes
// after the drop moves floats and must be gated as such: segments identical
// to refSplitTimes on TestSplitTimesMatchesReference, the fixtures and
// FuzzSplitTimes.
package bocd

import (
	"math"
)

// Config carries no settings: the operating point is the constants below.
// The type remains as the carrier NewPool takes and SplitConfig.BOCD
// holds, which bench/shadow.go still names until ROADMAP item 1(b).
type Config struct{}

// The operating point. hazard is the per-observation change-point
// probability (1/expected run length); threshold the posterior
// change-point probability above which SplitTimes reports one;
// maxRunLength the cap on run-length hypotheses; mu0, kappa0, alpha0 and
// beta0 the Normal-Gamma prior on (mean, precision).
const (
	hazard       = 1.0 / 100
	threshold    = 0.95
	maxRunLength = 512
	mu0          = 0
	kappa0       = 0.1
	alpha0       = 1
	beta0        = 1
)

// Detector is an online BOCD instance. Construct with New.
//
// Step is allocation-free in steady state: the posterior arrays are
// double-buffered, so each update writes into last step's spare buffers
// and swaps. The posterior never holds more than maxRunLength hypotheses,
// so once both buffer pairs have grown to the largest live posterior seen
// no further allocation occurs, however long the sequence — this matters
// because the analysis pipeline runs one detector per endpoint pair and
// per rank over every window.
type Detector struct {
	// tail continues the shared table for the longest run once that has
	// absorbed more observations than the table holds.
	tail countConsts
	// The posterior, one entry per hypothesis Step still holds, in order of
	// increasing run length: the change-point hypothesis first, the longest
	// run last. cnt[i] is the number of observations hypothesis i has
	// absorbed (the longest run's is n).
	logp []float64
	mu   []float64
	beta []float64
	cnt  []int32
	// Spare buffers Step writes the next posterior into before swapping.
	spareLogp []float64
	spareMu   []float64
	spareBeta []float64
	spareCnt  []int32
	n         int
	// floor is pruneFloor and maxRun maxRunLength; fields only so the
	// package's tests can show what a shallower floor breaks and make
	// ordinary bursts fold.
	floor  float64
	maxRun int
	// splitBuf is SplitTimes' gap scratch; it lives here so a pooled
	// detector carries it from call to call.
	splitBuf []float64
}

// countConsts is everything Step needs about a hypothesis that depends only
// on how many observations it has absorbed: kappa = kappa0 + c and
// alpha = alpha0 + c/2, each built by the repeated +1 / +0.5 the
// per-hypothesis update used to perform, and the expressions over them that
// the Student-t predictive and the Normal-Gamma update evaluate.
type countConsts struct {
	kappa      float64
	alpha      float64
	kappa1     float64 // kappa + 1
	alphaKappa float64 // alpha * kappa
	nu         float64 // 2 * alpha
	halfNu1    float64 // (nu + 1) / 2
	twoKappa1  float64 // 2 * (kappa + 1)
	logNorm    float64 // lgamma((nu+1)/2) - lgamma(nu/2) - log(nu*pi)/2
}

func newCountConsts(kappa, alpha float64) countConsts {
	nu := 2 * alpha
	return countConsts{
		kappa:      kappa,
		alpha:      alpha,
		kappa1:     kappa + 1,
		alphaKappa: alpha * kappa,
		nu:         nu,
		halfNu1:    (nu + 1) / 2,
		twoKappa1:  2 * (kappa + 1),
		logNorm:    lgamma((nu+1)/2) - lgamma(nu/2) - 0.5*math.Log(nu*math.Pi),
	}
}

// pruneFloor is the normalized log-mass below which Step stops carrying a
// run-length hypothesis: e^-60 ≈ 1e-26 of the posterior. See "The count
// column and the mass floor" in the package doc for what set it; a floor
// anywhere near Adams & MacKay's 1e-4 changes segments.
const pruneFloor = -60

// table[c] holds the Student-t constants of a hypothesis that has absorbed
// c observations (see the package doc), for every count a run reaches
// before it folds. Entry c+1 is built from entry c by the repeated +1 /
// +0.5 the per-hypothesis update used to perform.
var table = func() (t [maxRunLength]countConsts) {
	t[0] = newCountConsts(kappa0, alpha0)
	for c := 1; c < maxRunLength; c++ {
		t[c] = newCountConsts(t[c-1].kappa+1, t[c-1].alpha+0.5)
	}
	return t
}()

var (
	logH   = math.Log(hazard)
	log1mH = math.Log1p(-hazard)
	// The x-independent parts of the prior predictive: its scale, and
	// table[0].logNorm - log(scale).
	priorScale   = math.Sqrt(beta0 * table[0].kappa1 / table[0].alphaKappa)
	priorLogNorm = table[0].logNorm - math.Log(priorScale)
)

// New returns a Detector in its initial state.
func New() *Detector {
	d := &Detector{floor: pruneFloor, maxRun: maxRunLength}
	d.reset()
	return d
}

func (d *Detector) reset() {
	d.logp = append(d.logp[:0], 0) // P(r_0 = 0) = 1
	d.mu = append(d.mu[:0], mu0)
	d.beta = append(d.beta[:0], beta0)
	d.cnt = append(d.cnt[:0], 0)
	d.n = 0
}

// N returns the number of observations consumed.
func (d *Detector) N() int { return d.n }

// Reset returns the detector to its initial state while keeping its
// buffers, so one detector can be reused across many short sequences
// without reallocating.
func (d *Detector) Reset() { d.reset() }

// nextBuf returns buf resized to n without preserving contents, growing
// its capacity geometrically when needed — from 16, which a pruned posterior
// seldom outgrows, so a fresh detector's columns are allocated once.
func nextBuf[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(2*cap(buf), n, 16))
	}
	return buf[:n]
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Step consumes one observation and returns the posterior probability that
// a change-point occurred at this observation, P(r_t = 0 | x_{1:t}).
//
// Convention: r_t = 0 means x is the first observation of a new segment, so
// the change-point hypothesis predicts x from the prior, while the growth
// hypotheses predict x from the sufficient statistics of their runs. (With
// the alternative "change-point after x_t" convention, P(r_t = 0) is
// identically the hazard and useless for thresholding, which is how the
// paper applies it.)
func (d *Detector) Step(x float64) float64 {
	n := len(d.logp)
	// One pass per hypothesis: the Student-t predictive log-probability of x
	// under its run statistics, the growth probability, and the Normal-Gamma
	// update of (mu, beta) with x. The new posterior is written into the
	// spare buffers, which never alias the current ones.
	newLogp := nextBuf(d.spareLogp, n+1)
	newMu := nextBuf(d.spareMu, n+1)
	newBeta := nextBuf(d.spareBeta, n+1)
	newCnt := nextBuf(d.spareCnt, n+1)
	logp, mu, beta, cnt := d.logp, d.mu, d.beta, d.cnt
	grow := func(i int, c *countConsts) {
		m, b := mu[i], beta[i]
		scale := math.Sqrt(b * c.kappa1 / c.alphaKappa)
		z := (x - m) / scale
		logpred := c.logNorm - math.Log(scale) - c.halfNu1*math.Log1p(z*z/c.nu)
		newLogp[i+1] = logp[i] + logpred + log1mH
		newMu[i+1] = (c.kappa*m + x) / c.kappa1
		newBeta[i+1] = b + c.kappa*(x-m)*(x-m)/c.twoKappa1
	}
	longest := d.longestConsts()
	for i, c := range cnt[:n-1] {
		grow(i, &table[c])
		newCnt[i+1] = c + 1
	}
	grow(n-1, longest)

	// The change-point hypothesis pools the hazard mass of every run,
	// predicts x from the prior, and restarts from the prior updated with x
	// (its segment contains exactly x).
	prior := &table[0]
	z := (x - mu0) / priorScale
	logPriorPred := priorLogNorm - prior.halfNu1*math.Log1p(z*z/prior.nu)
	newLogp[0] = logSumExp(logp) + logH + logPriorPred
	newMu[0] = (kappa0*mu0 + x) / prior.kappa1
	newBeta[0] = beta0 + kappa0*(x-mu0)*(x-mu0)/prior.twoKappa1
	newCnt[0] = 1

	// Normalize, and in the same pass close the gaps left by hypotheses
	// whose mass fell below the floor. The change-point hypothesis and the
	// longest run always stay: the first is the answer, the second is where
	// the maxRunLength fold puts live mass however dead it is itself.
	total := logSumExp(newLogp)
	newLogp[0] -= total
	floor, w := d.floor, 1
	for i := 1; i < n; i++ {
		lp := newLogp[i] - total
		if lp < floor {
			continue
		}
		newLogp[w], newMu[w], newBeta[w], newCnt[w] = lp, newMu[i], newBeta[i], newCnt[i]
		w++
	}
	newLogp[w], newMu[w], newBeta[w] = newLogp[n]-total, newMu[n], newBeta[n]
	if int(newCnt[w-1]) == d.maxRun {
		// A run that reaches maxRunLength folds into the longest, which
		// keeps its own sufficient statistics.
		newLogp[w-1] = logSumExp(newLogp[w-1 : w+1])
		newMu[w-1], newBeta[w-1] = newMu[w], newBeta[w]
		w--
	}
	d.n++
	newCnt[w] = int32(d.n)

	d.spareLogp, d.spareMu, d.spareBeta, d.spareCnt = logp, mu, beta, cnt
	d.logp, d.mu, d.beta, d.cnt = newLogp[:w+1], newMu[:w+1], newBeta[:w+1], newCnt[:w+1]
	return math.Exp(d.logp[0])
}

// longestConsts returns the constants of the longest run, which has
// absorbed all d.n observations so far. Below maxRunLength that is the
// shared table's entry — every shorter run folds before it would read
// further — and from there its constants advance in d.tail, so a detector
// fed an endless sequence stays bounded.
func (d *Detector) longestConsts() *countConsts {
	if d.n < len(table) {
		return &table[d.n]
	}
	prev := &table[len(table)-1]
	if d.n > len(table) {
		prev = &d.tail
	}
	d.tail = newCountConsts(prev.kappa+1, prev.alpha+0.5)
	return &d.tail
}

func logSumExp(xs []float64) float64 {
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
