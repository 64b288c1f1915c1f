package bocd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"slices"
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

// TestStepBitIdenticalToReference holds the table-driven, pruning detector
// to the exact bits of the five-column reference, which keeps every
// hypothesis: the returned probability after every step; every hypothesis
// the detector still holds against the reference hypothesis of the same
// count (the longest run against the reference's last, whose statistics are
// exact and whose mass may fall short by what was dropped); and, for every
// hypothesis it let go, a reference mass below the floor at that step.
// Through the truncation fold and across Reset cycles. The reference runs at
// its own literal operating point, so this also pins every detector
// constant.
func TestStepBitIdenticalToReference(t *testing.T) {
	configs := map[string]refConfig{
		"default":  refDefaults,
		"truncate": refCapped,
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			det, ref := New(), newRefDetector(cfg)
			det.maxRun = cfg.maxRunLength
			dropped := 0
			var before []int32
			// Cycle lengths rise and fall so a Reset detector both reuses
			// and extends the table it built on earlier cycles.
			for cycle, n := range []int{1500, 1900, 1600, 2300, 1500} {
				if cycle > 0 {
					det.Reset()
					ref.Reset()
				}
				for i, x := range winsorizedObs(rng, n) {
					before = append(before[:0], det.cnt[:len(det.cnt)-1]...)
					got, want := det.Step(x), ref.Step(x)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cycle %d step %d: P(r=0) = %x, reference %x", cycle, i, got, want)
					}
					longest := len(det.cnt) - 1
					for h, c := range det.cnt {
						at := int(c) - 1
						if h == longest {
							at = len(ref.logp) - 1
						}
						for _, col := range []struct {
							name      string
							got, want float64
						}{
							{"logp", det.logp[h], ref.logp[at]},
							{"mu", det.mu[h], ref.mu[at]},
							{"beta", det.beta[h], ref.beta[at]},
						} {
							if math.Float64bits(col.got) == math.Float64bits(col.want) {
								continue
							}
							// The one inexact float: the reference also folds
							// into its longest run the lineages the detector
							// dropped, so the detector's can fall short of it
							// by their mass — each below e^floor when dropped,
							// one folding per step. Never above, and never by
							// more than a few thousand floors.
							if short := math.Exp(col.want) - math.Exp(col.got); h == longest && col.name == "logp" &&
								col.got < col.want && short < math.Exp(pruneFloor+10) {
								continue
							}
							t.Fatalf("cycle %d step %d: %s of the count-%d hypothesis = %v, reference %v",
								cycle, i, col.name, c, col.got, col.want)
						}
					}
					// Every run held before the step grew by one. It is still
					// held, or it folded at the cap, or it was dropped.
					held := det.cnt[1:longest]
					for _, c := range before {
						c++
						for len(held) > 0 && held[0] < c {
							held = held[1:]
						}
						if len(held) > 0 && held[0] == c || int(c) == det.maxRun {
							continue
						}
						dropped++
						if lp := ref.logp[c-1]; lp >= pruneFloor {
							t.Fatalf("cycle %d step %d: dropped the count-%d hypothesis at reference log-mass %v", cycle, i, c, lp)
						}
					}
				}
				if det.N() != ref.n {
					t.Fatalf("cycle %d: N = %d, reference %d", cycle, det.N(), ref.n)
				}
			}
			if dropped == 0 {
				t.Fatal("nothing was ever dropped: the sequences no longer exercise pruning")
			}
		})
	}
}

// splitCaseKinds is the number of shapes splitCase draws.
const splitCaseKinds = 8

// splitCase draws one event-time sequence of the given shape. The shapes
// cover the splitter's branches: ordinary bursts, no two-regime separation,
// a guard-clearing gap at index 0 (never a boundary), a guard-clearing last
// gap (nothing to skip), duplicate timestamps (zero gaps, down to a zero
// median), runs longer than the run-length cap, heavy-tailed gaps where the
// detector vetoes many guard-clearing candidates, and one rank's minute
// window, where most of the posterior is dead.
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
		// Past the capped settings' cap always, past the default
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
	case 7:
		// One rank of a DP job over a one-minute window, as the daemon's
		// default window feeds it (testdata/saturate_hop_splits.bin): some 20
		// steps of some 110 events, each step's flows leaving in simultaneous
		// groups a few milliseconds apart, with one optimizer pause ten group
		// spacings long in the middle. The pause kills every run that absorbs
		// it, the guard rejects it so SplitTimes does not Reset, and the dead
		// runs ride along to the step boundary.
		steps, groups, width := 14+rng.Intn(10), 20+rng.Intn(10), 2+rng.Intn(4)
		spacing := jittered(3 * time.Millisecond)
		for s := 0; s < steps; s++ {
			for g := 0; g < groups; g++ {
				gaps = append(gaps, make([]time.Duration, width-1)...)
				switch g {
				case groups - 1:
					gaps = append(gaps, jittered(3*time.Second))
				case groups/2 - 1:
					gaps = append(gaps, 10*spacing)
				default:
					gaps = append(gaps, spacing+time.Duration(rng.Intn(50))*time.Microsecond)
				}
			}
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
func checkSplitMatchesReference(t *testing.T, times []time.Time, s splitSetting) {
	t.Helper()
	want := refSplitTimes(times, s.ref)
	got := SplitTimes(times, s.config())
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

// splitSetting is one detector setting the splitter identity checks run
// under: the reference's operating point, and the pool SplitTimes draws
// from, nil for a fresh detector per call.
type splitSetting struct {
	ref  refConfig
	pool *Pool
}

// config is the SplitConfig that runs SplitTimes under s. A capped setting
// without a pool gets a fresh single-detector pool, so its detector is
// fresh on every call too.
func (s splitSetting) config() SplitConfig {
	if s.pool == nil && s.ref.maxRunLength != refDefaults.maxRunLength {
		return SplitConfig{Detectors: detectorPool(s.ref.maxRunLength, pruneFloor)}
	}
	return SplitConfig{Detectors: s.pool}
}

// detectorPool returns a pool whose one detector folds runs at maxRun and
// drops hypotheses below floor. Calls that take turns with it all get that
// detector.
func detectorPool(maxRun int, floor float64) *Pool {
	p := NewPool(Config{})
	d := p.Get()
	d.maxRun, d.floor = maxRun, floor
	p.Put(d)
	return p
}

// splitTestConfigs are the settings the splitter identity checks run
// under, each with and without a pool: the shipped operating point, and a
// run-length cap short enough that ordinary bursts fold. Index bit 0 is
// pooled, bit 1 capped.
func splitTestConfigs() []splitSetting {
	var out []splitSetting
	for _, ref := range []refConfig{refDefaults, refCapped} {
		out = append(out, splitSetting{ref: ref}, splitSetting{ref: ref, pool: detectorPool(ref.maxRunLength, pruneFloor)})
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
		boundaries += len(SplitTimes(times, configs[0].config())) - 1
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

// maxFuzzGaps bounds a fuzz input above one rank's minute window (2 287 gaps
// in the fixtures), so the committed seeds of that shape run.
const maxFuzzGaps = 2400

// FuzzSplitTimes: on arbitrary gap sequences SplitTimes — early stop,
// constants table, count column, mass floor — returns the segments of the
// full-scan reference splitter over the detector that prunes nothing.
func FuzzSplitTimes(f *testing.F) {
	for seed := 0; seed < 4*splitCaseKinds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f.Add(encodeSplitCase(byte(seed/splitCaseKinds), splitCase(rng, seed%splitCaseKinds)))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add(foldTargetCase)
	f.Add(revivalCase)
	for i, times := range loadSplitFixtures(f) {
		f.Add(encodeSplitCase(byte(i), times))
	}
	configs := splitTestConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+2*maxFuzzGaps {
			return
		}
		flags, times := decodeSplitCase(data)
		if len(times) == 0 {
			return
		}
		checkSplitMatchesReference(t, times, configs[flags&3])
	})
}

// loadSplitFixtures decodes testdata/saturate_hop_splits.bin: SplitTimes
// inputs harvested (throw-away hook in SplitTimes, seed 1, default length)
// from a saturate-hop benchmark run, the one-minute-window shape that holds
// most of the dead posterior mass the floor exists for. Each sequence is a
// uvarint gap count followed by that many uvarint gaps in nanoseconds. In
// order: the three sequences with the deepest revivals measured on that run
// (a lineage back to >= 5% from e^-32.9, to >= 1e-3 from e^-39.8, to >= 1e-6
// from e^-46.6), four 48-event pair sequences whose segments change at a
// floor of -5 (none of the run's 9 792 changes at -6 or below), and eight of
// the longest rank sequences (2 288 events, 22 steps).
func loadSplitFixtures(tb testing.TB) [][]time.Time {
	tb.Helper()
	data, err := os.ReadFile("testdata/saturate_hop_splits.bin")
	if err != nil {
		tb.Fatal(err)
	}
	next := func() time.Duration {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			tb.Fatal("testdata/saturate_hop_splits.bin: truncated")
		}
		data = data[n:]
		return time.Duration(v)
	}
	var out [][]time.Time
	for len(data) > 0 {
		at := splitEpoch
		times := []time.Time{at}
		for n := next(); n > 0; n-- {
			at = at.Add(next())
			times = append(times, at)
		}
		out = append(out, times)
	}
	return out
}

func TestSplitTimesMinuteWindowFixtures(t *testing.T) {
	configs := splitTestConfigs()
	for _, times := range loadSplitFixtures(t) {
		for _, cfg := range configs {
			checkSplitMatchesReference(t, times, cfg)
		}
	}
}

// revivalCase is a FuzzSplitTimes input (found fuzzing with the floor raised
// to -20): eight events with gaps 0, 6.8 s, 15.2 s, 0, 0, 61.9 s, 0. The
// median gap is zero, so observations are in nanoseconds, as they are for
// every rank sequence in the fixtures. A run that has sunk below e^-40 is the
// one that explains the last large gap; without it SplitTimes reports a
// boundary the reference does not.
var revivalCase = []byte("0\x00\x000 00\x00\x00\x00\x000a\x00\x00")

// TestPruneFloorMargin is the red test for anyone tuning the floor toward
// Adams & MacKay's 1e-4: at the shipped floor no sequence below differs from
// the reference, at -20 one does (revivalCase, from -40 up), and at -5 the
// harvested pair sequences do too.
func TestPruneFloorMargin(t *testing.T) {
	_, revival := decodeSplitCase(revivalCase)
	cases := append(loadSplitFixtures(t), revival)
	differing := func(floor float64) int {
		cfg, n := SplitConfig{Detectors: detectorPool(refDefaults.maxRunLength, floor)}, 0
		for _, times := range cases {
			if !slices.Equal(SplitTimes(times, cfg), refSplitTimes(times, refDefaults)) {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		floor float64
		want  int
	}{{pruneFloor, 0}, {-20, 1}, {-5, 5}} {
		if got := differing(tc.floor); got != tc.want {
			t.Errorf("floor %g: %d of %d sequences differ from the reference, want %d", tc.floor, got, len(cases), tc.want)
		}
	}
}

// foldTargetCase is a FuzzSplitTimes input (capped config, unpooled): 86
// events whose longest run is long dead when the runs behind it reach
// the cap and fold onto its statistics.
var foldTargetCase = func() []byte {
	var vs []uint16
	repeat := func(n int, v ...uint16) {
		for ; n > 0; n-- {
			vs = append(vs, v...)
		}
	}
	repeat(10, 48, 12336, 8496, 48, 48)
	repeat(7, 48, 12336)
	repeat(1, 8496, 48, 3888, 2864)
	repeat(14, 48)
	repeat(1, 65, 48, 12427)
	out := []byte{0x32}
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint16(out, v)
	}
	return out
}()

// TestSplitTimesFoldTargetSurvivesPruning: the longest run is the
// run-length cap's fold target, so the reference puts live mass on its
// statistics however dead it is. A detector that drops it with the rest
// splits this sequence again at 64 and 85 (FuzzSplitTimes found it in 19 s).
func TestSplitTimesFoldTargetSurvivesPruning(t *testing.T) {
	flags, times := decodeSplitCase(foldTargetCase)
	cfg := splitTestConfigs()[flags&3]
	if cfg.ref.maxRunLength != 16 || cfg.pool != nil || len(times) != 86 {
		t.Fatalf("case decodes to %d events under %+v", len(times), cfg)
	}
	checkSplitMatchesReference(t, times, cfg)
	got := SplitTimes(times, cfg.config())
	if last := got[len(got)-1]; last != (Segment{Lo: 62, Hi: 86}) {
		t.Fatalf("last segment %+v of %v, want {62 86}", last, got)
	}
}
