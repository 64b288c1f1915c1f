package bocd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"
)

// winsorizedObs draws the kind of sequence SplitTimes feeds the detector:
// median-normalized gaps floored at 1, with a step-boundary spike every few
// dozen observations.
func winsorizedObs(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	next := 20 + rng.Intn(60)
	for i := range xs {
		x := math.Exp(rng.NormFloat64() * 0.8)
		if x < 1 {
			x = 1
		}
		if i == next {
			x = 50 + rng.Float64()*2000
			next += 20 + rng.Intn(60)
		}
		xs[i] = x
	}
	return xs
}

func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestStepBitIdenticalToReference holds the table-driven three-column
// detector to the exact bits of the five-column reference: the returned
// probability and the whole posterior after every step, through the
// truncation fold and across Reset cycles (which keep the table).
func TestStepBitIdenticalToReference(t *testing.T) {
	configs := map[string]Config{
		"default":  {},
		"truncate": {MaxRunLength: 16},
		"prior":    {Alpha0: 0.3, Kappa0: 0.7, Beta0: 2.5, Mu0: 1.1},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			det, ref := New(cfg), newRefDetector(cfg)
			// Cycle lengths rise and fall so a Reset detector both reuses
			// and extends the table it built on earlier cycles.
			for cycle, n := range []int{1500, 1900, 1600, 2300, 1500} {
				if cycle > 0 {
					det.Reset()
					ref.Reset()
				}
				for i, x := range winsorizedObs(rng, n) {
					got, want := det.Step(x), ref.Step(x)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cycle %d step %d: P(r=0) = %x, reference %x", cycle, i, got, want)
					}
					for _, col := range []struct {
						name      string
						got, want []float64
					}{
						{"logp", det.logp, ref.logp},
						{"mu", det.mu, ref.mu},
						{"beta", det.beta, ref.beta},
					} {
						if at, ok := sameBits(col.got, col.want); !ok {
							t.Fatalf("cycle %d step %d: %s differs from the reference at %d (lengths %d, %d)",
								cycle, i, col.name, at, len(col.got), len(col.want))
						}
					}
				}
				if det.N() != ref.n {
					t.Fatalf("cycle %d: N = %d, reference %d", cycle, det.N(), ref.n)
				}
			}
		})
	}
}

// splitCaseKinds is the number of shapes splitCase draws.
const splitCaseKinds = 7

// splitCase draws one event-time sequence of the given shape. The shapes
// cover the splitter's branches: ordinary bursts, no two-regime separation,
// a guard-clearing gap at index 0 (never a boundary), a guard-clearing last
// gap (nothing to skip), duplicate timestamps (zero gaps, down to a zero
// median), runs longer than MaxRunLength, and heavy-tailed gaps where the
// detector vetoes many guard-clearing candidates.
func splitCase(rng *rand.Rand, kind int) []time.Time {
	var gaps []time.Duration
	jittered := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * (0.5 + rng.Float64()))
	}
	bursts := func(steps, burst int, intra, inter time.Duration) {
		for s := 0; s < steps; s++ {
			for i := 1; i < burst; i++ {
				gaps = append(gaps, jittered(intra))
			}
			gaps = append(gaps, jittered(inter))
		}
	}
	switch kind {
	case 0:
		bursts(1+rng.Intn(8), 3+rng.Intn(30), time.Millisecond, time.Second)
	case 1:
		for i, n := 0, 3+rng.Intn(80); i < n; i++ {
			gaps = append(gaps, time.Millisecond+time.Duration(rng.Intn(2000))*time.Microsecond)
		}
	case 2:
		gaps = append(gaps, 3*time.Second)
		bursts(rng.Intn(4), 4+rng.Intn(20), time.Millisecond, time.Second)
		gaps = append(gaps, time.Millisecond, time.Millisecond)
	case 3:
		bursts(1+rng.Intn(5), 4+rng.Intn(20), time.Millisecond, time.Second)
	case 4:
		zeroEvery := 2 + rng.Intn(3)
		bursts(2+rng.Intn(5), 6+rng.Intn(20), time.Millisecond, time.Second)
		for i := range gaps {
			if rng.Intn(zeroEvery) > 0 && gaps[i] < 100*time.Millisecond {
				gaps[i] = 0
			}
		}
	case 5:
		// Past the capped configs' MaxRunLength always, past the default
		// 512 one time in six (the reference costs ~50 ms on those).
		long := 30 + rng.Intn(100)
		if rng.Intn(6) == 0 {
			long = 520 + rng.Intn(80)
		}
		bursts(1, long, time.Millisecond, time.Second)
		bursts(1+rng.Intn(3), 5+rng.Intn(40), time.Millisecond, time.Second)
	case 6:
		for i, n := 0, 10+rng.Intn(150); i < n; i++ {
			gaps = append(gaps, time.Duration(float64(time.Millisecond)*math.Exp(rng.NormFloat64()*2.5)))
		}
	}
	if kind != 3 {
		// Every shape but 3 ends inside a burst, so there is a tail to skip.
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			gaps = append(gaps, jittered(time.Millisecond))
		}
	}
	times := make([]time.Time, 0, len(gaps)+1)
	at := splitEpoch
	times = append(times, at)
	for _, g := range gaps {
		at = at.Add(g)
		times = append(times, at)
	}
	return times
}

// checkSplitMatchesReference compares SplitTimes with the full-scan
// reference and checks that the segments partition [0, len(times)).
func checkSplitMatchesReference(t *testing.T, times []time.Time, cfg SplitConfig) {
	t.Helper()
	want := refSplitTimes(times, cfg)
	got := SplitTimes(times, cfg)
	if len(got) != len(want) {
		t.Fatalf("%d events: %d segments %v, reference %d %v", len(times), len(got), got, len(want), want)
	}
	next := 0
	for i, seg := range got {
		if seg != want[i] {
			t.Fatalf("%d events: segment %d = %+v, reference %+v", len(times), i, seg, want[i])
		}
		if seg.Lo != next || seg.Hi <= seg.Lo {
			t.Fatalf("%d events: segment %d = %+v does not continue a partition at %d", len(times), i, seg, next)
		}
		next = seg.Hi
	}
	if next != len(times) {
		t.Fatalf("segments end at %d, want %d", next, len(times))
	}
}

// splitTestConfigs are the detector settings the splitter identity checks
// run under, each with and without a pool: the defaults, and a run-length
// cap short enough that ordinary bursts fold. Index bit 0 is pooled, bit 1
// capped.
func splitTestConfigs() []SplitConfig {
	var out []SplitConfig
	for _, c := range []Config{{}, {MaxRunLength: 16}} {
		out = append(out, SplitConfig{BOCD: c}, SplitConfig{BOCD: c, Detectors: NewPool(c)})
	}
	return out
}

func TestSplitTimesMatchesReference(t *testing.T) {
	configs := splitTestConfigs()
	const sequences = 1050
	boundaries := 0
	for seed := 0; seed < sequences; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		times := splitCase(rng, seed%splitCaseKinds)
		// Pooled detectors are reused across every sequence before this
		// one, so their table and scratch carry over.
		for _, cfg := range configs {
			checkSplitMatchesReference(t, times, cfg)
		}
		boundaries += len(SplitTimes(times, configs[0])) - 1
	}
	if boundaries < sequences {
		t.Fatalf("only %d boundaries over %d sequences: the cases no longer exercise the detector", boundaries, sequences)
	}
}

// Fuzz input: one flag byte (bit 0 pooled, bit 1 short run-length cap), then
// two little-endian bytes v per gap, the gap being v*v*100ns — zero through
// 429 s with sub-millisecond resolution where the burst gaps live.
func encodeSplitCase(flags byte, times []time.Time) []byte {
	out := []byte{flags}
	for i := 1; i < len(times); i++ {
		v := math.Round(math.Sqrt(float64(times[i].Sub(times[i-1])) / 100))
		out = binary.LittleEndian.AppendUint16(out, uint16(math.Min(v, math.MaxUint16)))
	}
	return out
}

func decodeSplitCase(data []byte) (flags byte, times []time.Time) {
	if len(data) == 0 {
		return 0, nil
	}
	at := splitEpoch
	times = append(times, at)
	for b := data[1:]; len(b) >= 2; b = b[2:] {
		v := time.Duration(binary.LittleEndian.Uint16(b))
		at = at.Add(v * v * 100)
		times = append(times, at)
	}
	return data[0], times
}

func FuzzSplitTimes(f *testing.F) {
	for seed := 0; seed < 4*splitCaseKinds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f.Add(encodeSplitCase(byte(seed/splitCaseKinds), splitCase(rng, seed%splitCaseKinds)))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	configs := splitTestConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+2*1024 {
			return
		}
		flags, times := decodeSplitCase(data)
		if len(times) == 0 {
			return
		}
		checkSplitMatchesReference(t, times, configs[flags&3])
	})
}
