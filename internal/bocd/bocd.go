// Package bocd implements Bayesian Online Changepoint Detection
// (Adams & MacKay, 2007), the change-point detector LLMPrism uses to divide
// network flow sequences into training steps (§IV-B, §IV-C of the paper).
//
// The detector maintains a posterior distribution over the current
// "run length" r_t (time since the last change-point). Observations are
// modelled as Gaussian with unknown mean and variance under a Normal-Gamma
// conjugate prior, giving a Student-t predictive distribution. A constant
// hazard function governs change-point arrival. The paper reports a
// change-point whenever P(r_t = 0) exceeds a threshold (0.95 in their
// implementation, our default).
//
// All computation is in log space; the run-length distribution is truncated
// at a configurable maximum length for linear-time operation.
//
// # The positional-count invariant
//
// Under the Normal-Gamma update kappa and alpha never see the data: a
// hypothesis that has absorbed c observations has kappa = Kappa0 + c and
// alpha = Alpha0 + c/2, whatever the observations were. And c is a function
// of position in the run-length posterior: the hypothesis at index r has
// absorbed r+1 observations (Step counts the observation that opened its
// run, see the convention on Step), except the last index, which holds the
// longest run — every observation since New or Reset, N() of them, both
// before the distribution reaches MaxRunLength and after, because the
// truncation fold keeps the longest run's statistics for the folded bucket.
//
// So the Detector keeps only the data-dependent columns (log-probability,
// mu, beta) and reads kappa, alpha and every expression over them — among
// them the Student-t normalizer, two Lgamma and a Log — from a table indexed
// by c. The table is bit-exact, not an approximation: entry c+1 is built
// from entry c by the same float64 `kappa + 1` and `alpha + 0.5` the
// per-hypothesis update performed c times over, and each derived constant
// is the same expression, in the same association, over those same inputs.
// Equal inputs to equal IEEE-754 operations give equal bits, for any prior;
// TestStepBitIdenticalToReference holds the detector to that against the
// five-column implementation kept in reference_test.go. A change that
// reassociates any of those expressions moves floats and must be gated as
// such.
package bocd

import (
	"math"
)

// Config parameterizes a Detector. The zero value selects the defaults
// documented on each field.
type Config struct {
	// Hazard is the per-observation change-point probability (1/expected
	// run length). Default 1/100.
	Hazard float64
	// Threshold is the posterior change-point probability above which
	// a change-point is reported. Default 0.95 (the paper's setting).
	Threshold float64
	// MaxRunLength truncates the run-length distribution. Default 512.
	MaxRunLength int
	// Prior hyperparameters of the Normal-Gamma prior on (mean, precision).
	// Defaults: Mu0=0, Kappa0=0.1, Alpha0=1, Beta0=1. The small Kappa0
	// keeps the prior on the mean vague, so the change-point hypothesis
	// (which predicts from the prior) explains genuine regime shifts far
	// better than the incumbent run hypotheses and P(r_t = 0) saturates.
	Mu0, Kappa0, Alpha0, Beta0 float64
}

func (c Config) withDefaults() Config {
	if c.Hazard <= 0 || c.Hazard >= 1 {
		c.Hazard = 1.0 / 100
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		c.Threshold = 0.95
	}
	if c.MaxRunLength <= 0 {
		c.MaxRunLength = 512
	}
	if c.Kappa0 <= 0 {
		c.Kappa0 = 0.1
	}
	if c.Alpha0 <= 0 {
		c.Alpha0 = 1
	}
	if c.Beta0 <= 0 {
		c.Beta0 = 1
	}
	return c
}

// Detector is an online BOCD instance. Construct with New.
//
// Step is allocation-free in steady state: the posterior arrays are
// double-buffered, so each update writes into last step's spare buffers
// and swaps. Once the run-length distribution reaches MaxRunLength both
// buffer pairs and the constants table have their final capacity and no
// further allocation occurs — this matters because the analysis pipeline
// runs one detector per endpoint pair and per rank over every window.
type Detector struct {
	cfg    Config
	logH   float64 // log hazard
	log1mH float64 // log(1 - hazard)
	// The x-independent parts of the prior predictive: its scale, and
	// tab[0].logNorm - log(scale).
	priorScale   float64
	priorLogNorm float64
	// tab[c] holds the Student-t constants of a hypothesis that has absorbed
	// c observations (see the package doc). It is a pure function of cfg,
	// grows one entry per step past its longest run so far up to
	// MaxRunLength entries, and survives Reset. tail continues it for the
	// longest run once that has absorbed more than the table holds.
	tab  []countConsts
	tail countConsts
	logp []float64
	mu   []float64
	beta []float64
	// Spare buffers Step writes the next posterior into before swapping.
	spareLogp []float64
	spareMu   []float64
	spareBeta []float64
	n         int
	// splitBuf is SplitTimes' gap scratch; it lives here so a pooled
	// detector carries it from call to call.
	splitBuf []float64
}

// countConsts is everything Step needs about a hypothesis that depends only
// on how many observations it has absorbed: kappa = Kappa0 + c and
// alpha = Alpha0 + c/2, each built by the repeated +1 / +0.5 the
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

// New returns a Detector with the given configuration.
func New(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	prior := newCountConsts(cfg.Kappa0, cfg.Alpha0)
	priorScale := math.Sqrt(cfg.Beta0 * prior.kappa1 / prior.alphaKappa)
	d := &Detector{
		cfg:          cfg,
		logH:         math.Log(cfg.Hazard),
		log1mH:       math.Log1p(-cfg.Hazard),
		priorScale:   priorScale,
		priorLogNorm: prior.logNorm - math.Log(priorScale),
		tab:          []countConsts{prior},
	}
	d.reset()
	return d
}

func (d *Detector) reset() {
	d.logp = append(d.logp[:0], 0) // P(r_0 = 0) = 1
	d.mu = append(d.mu[:0], d.cfg.Mu0)
	d.beta = append(d.beta[:0], d.cfg.Beta0)
	d.n = 0
}

// N returns the number of observations consumed.
func (d *Detector) N() int { return d.n }

// Reset returns the detector to its initial state while keeping its
// buffers and its constants table, so one detector can be reused across
// many short sequences without reallocating or recomputing.
func (d *Detector) Reset() { d.reset() }

// nextBuf returns buf resized to n without preserving contents, growing
// its capacity geometrically when needed.
func nextBuf(buf []float64, n int) []float64 {
	if cap(buf) < n {
		c := 2 * cap(buf)
		if c < n {
			c = n
		}
		return make([]float64, n, c)
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
	// One pass per run-length hypothesis r: the Student-t predictive
	// log-probability of x under its run statistics, the growth
	// probability r -> r+1, and the Normal-Gamma update of (mu, beta) with
	// x. The new posterior is written into the spare buffers, which never
	// alias the current ones.
	newLogp := nextBuf(d.spareLogp, n+1)
	newMu := nextBuf(d.spareMu, n+1)
	newBeta := nextBuf(d.spareBeta, n+1)
	logp, mu, beta := d.logp, d.mu, d.beta
	grow := func(r int, c *countConsts) {
		m, b := mu[r], beta[r]
		scale := math.Sqrt(b * c.kappa1 / c.alphaKappa)
		z := (x - m) / scale
		logpred := c.logNorm - math.Log(scale) - c.halfNu1*math.Log1p(z*z/c.nu)
		newLogp[r+1] = logp[r] + logpred + d.log1mH
		newMu[r+1] = (c.kappa*m + x) / c.kappa1
		newBeta[r+1] = b + c.kappa*(x-m)*(x-m)/c.twoKappa1
	}
	longest := d.longestConsts()
	for r := 0; r < n-1; r++ { // hypothesis r < n-1 has absorbed r+1 observations
		grow(r, &d.tab[r+1])
	}
	grow(n-1, longest)

	// The change-point hypothesis pools the hazard mass of every run,
	// predicts x from the prior, and restarts from the prior updated with x
	// (its segment contains exactly x).
	prior := &d.tab[0]
	k0, m0, b0 := d.cfg.Kappa0, d.cfg.Mu0, d.cfg.Beta0
	z := (x - m0) / d.priorScale
	logPriorPred := d.priorLogNorm - prior.halfNu1*math.Log1p(z*z/prior.nu)
	newLogp[0] = logSumExp(logp) + d.logH + logPriorPred
	newMu[0] = (k0*m0 + x) / prior.kappa1
	newBeta[0] = b0 + k0*(x-m0)*(x-m0)/prior.twoKappa1

	// Normalize.
	total := logSumExp(newLogp)
	for i := range newLogp {
		newLogp[i] -= total
	}

	d.spareLogp, d.spareMu, d.spareBeta = d.logp, d.mu, d.beta
	d.logp, d.mu, d.beta = newLogp, newMu, newBeta
	d.truncate()
	d.n++
	return math.Exp(d.logp[0])
}

// longestConsts returns the constants of the longest run, which has
// absorbed all d.n observations so far. A new longest run extends the table
// by one entry until it holds MaxRunLength — no positional hypothesis reads
// further — and from there its constants advance in d.tail, so a detector
// fed an endless sequence stays bounded.
func (d *Detector) longestConsts() *countConsts {
	if d.n < len(d.tab) {
		return &d.tab[d.n]
	}
	prev := &d.tab[len(d.tab)-1]
	if d.n > len(d.tab) {
		prev = &d.tail
	}
	next := newCountConsts(prev.kappa+1, prev.alpha+0.5)
	if len(d.tab) < d.cfg.MaxRunLength {
		d.tab = append(d.tab, next)
		return &d.tab[d.n]
	}
	d.tail = next
	return &d.tail
}

// truncate caps the run-length distribution at MaxRunLength by folding the
// tail mass into the final (longest) hypothesis.
func (d *Detector) truncate() {
	max := d.cfg.MaxRunLength
	if len(d.logp) <= max {
		return
	}
	tail := logSumExp(d.logp[max-1:])
	d.logp = d.logp[:max]
	d.logp[max-1] = tail
	// Keep the sufficient statistics of the longest run for the folded bucket.
	last := len(d.mu) - 1
	d.mu[max-1] = d.mu[last]
	d.beta[max-1] = d.beta[last]
	d.mu = d.mu[:max]
	d.beta = d.beta[:max]
}

// RunLengthDist returns a copy of the current run-length posterior
// probabilities (index = run length).
func (d *Detector) RunLengthDist() []float64 {
	out := make([]float64, len(d.logp))
	for i, lp := range d.logp {
		out[i] = math.Exp(lp)
	}
	return out
}

// MAPRunLength returns the maximum a posteriori run length.
func (d *Detector) MAPRunLength() int {
	best, bestLP := 0, math.Inf(-1)
	for r, lp := range d.logp {
		if lp > bestLP {
			best, bestLP = r, lp
		}
	}
	return best
}

// Detect runs a fresh detector over xs and returns the indices i where
// P(r_i = 0) exceeded the configured threshold.
func Detect(xs []float64, cfg Config) []int {
	d := New(cfg)
	var cps []int
	for i, x := range xs {
		if p := d.Step(x); p > d.cfg.Threshold && i > 0 {
			cps = append(cps, i)
		}
	}
	return cps
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
