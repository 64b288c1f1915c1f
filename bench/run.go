package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/llmprism/llmprism/internal/stats"
)

// env is what every run of this process shares: the checkout, the build
// directory and the compiled daemon.
type env struct {
	root     string
	buildDir string
	daemon   string
	spec     *benchSpec
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: root, buildDir: filepath.Join(root, ".bench_build"), spec: spec}
	if err := os.MkdirAll(e.buildDir, 0o755); err != nil {
		return nil, err
	}
	if e.daemon, err = buildDaemon(root, e.buildDir); err != nil {
		return nil, err
	}
	return e, nil
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	// Digests are the SHA-256 of each trace's wire bytes: the same seed
	// must reproduce them exactly.
	Digests map[string]string `json:"digests"`
	// Counts are exact, seed-determined counts (records, windows, late
	// drops, rows) that must repeat exactly between runs of one seed.
	Counts map[string]int64 `json:"counts"`
}

func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// run holds one workload run's state between its phases.
type run struct {
	env     *env
	w       *workload
	seed    int64
	seconds float64
	res     *result

	workDir string
	traces  []*trace
	plans   [][]streamPlan
}

// runWorkload runs one workload once: set-up, the stream phase against a
// fresh daemon, the readback phase over the stores it wrote, verification,
// and — with traced set — the per-layer pass.
func runWorkload(e *env, w *workload, seed int64, seconds float64, traced bool) (res *result, err error) {
	r := &run{env: e, w: w, seed: seed, seconds: seconds, res: &result{
		Workload: w.name, Seed: seed,
		Metrics: map[string]float64{}, Digests: map[string]string{}, Counts: map[string]int64{},
	}}
	if r.workDir, err = os.MkdirTemp(e.buildDir, "run-"+w.name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.workDir)

	calib := []float64{calibrate()}
	setupStart := time.Now()
	if err := r.generate(); err != nil {
		return nil, err
	}
	proc, err := r.boot()
	if err != nil {
		return nil, err
	}
	r.res.Metrics["setup_s"] = time.Since(setupStart).Seconds()

	sr, err := r.stream(proc)
	if err != nil {
		proc.kill()
		return nil, err
	}
	calib = append(calib, calibrate())
	if err := r.readback(sr); err != nil {
		return nil, err
	}
	calib = append(calib, calibrate())
	r.res.Metrics["gen.calib_ms"] = stats.Median(calib)
	if err := r.verify(sr); err != nil {
		return nil, err
	}
	if err := r.releaseMetrics(sr); err != nil {
		return nil, err
	}
	if traced {
		if err := r.tracedPass(); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// calibrate times a fixed arithmetic kernel, in milliseconds, between the
// phases of a run. It measures the host, not the program: on a shared
// machine every CPU-bound metric moves with it, so a run that reads slow
// can be told apart from a program that got slow. Best of three, since
// interference only ever adds time.
func calibrate() float64 {
	best := math.Inf(1)
	for range 3 {
		t0 := time.Now()
		sum := 0.0
		for k := 1; k <= 2_000_000; k++ {
			sum += math.Log(float64(k))
		}
		calibSink = sum
		best = min(best, float64(time.Since(t0))/1e6)
	}
	return best
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink float64

// generate simulates and encodes every distinct trace (concurrently: the
// simulator is single-threaded) and lays the lanes out over them.
func (r *run) generate() error {
	horizon := r.w.horizon(r.seconds)
	r.traces = make([]*trace, len(r.w.traces))
	errs := make([]error, len(r.w.traces))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, spec := range r.w.traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r.traces[i], errs[i] = buildTrace(spec, r.w.fabric, horizon, r.seed, r.w.flags.geo, r.w.perturb)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, tr := range r.traces {
		r.res.Digests[tr.spec.name] = tr.digestHex()
		r.res.Counts["records."+tr.spec.name] = int64(tr.sent)
		r.res.Counts["late."+tr.spec.name] = int64(tr.lateAssignments)
	}
	r.plans = make([][]streamPlan, len(r.w.lanes))
	for i, lane := range r.w.lanes {
		for _, s := range lane {
			r.plans[i] = append(r.plans[i], streamPlan{cluster: s.cluster, tr: r.traces[s.trace]})
		}
	}
	return nil
}

func (r *run) storeDir() string { return filepath.Join(r.workDir, "stores") }

// boot writes the topology and starts a fresh daemon.
func (r *run) boot() (*daemonProc, error) {
	topoPath := filepath.Join(r.workDir, "topo.json")
	tf, err := os.Create(topoPath)
	if err != nil {
		return nil, err
	}
	if err := r.traces[0].topo.WriteJSON(tf); err != nil {
		tf.Close()
		return nil, err
	}
	if err := tf.Close(); err != nil {
		return nil, err
	}
	if err := os.Mkdir(r.storeDir(), 0o755); err != nil {
		return nil, err
	}
	ready := filepath.Join(r.workDir, "ready")
	return startDaemon(r.env.daemon, r.w.flags.args(topoPath, r.storeDir(), ready), ready)
}

// streamResult is what the stream phase hands the later phases.
type streamResult struct {
	// lanes holds every stream's timing, lane by lane; timings is the same
	// flattened.
	lanes   [][]*streamTiming
	timings []*streamTiming
	exit    *daemonExit
	// wall is first connect to daemon exit, so flush and finalize are
	// inside every throughput figure.
	wall time.Duration
	// reports is each cluster's /v1/report text as of the end of ingest.
	reports map[string]string
	// poll holds what /v1/clusters showed: when each released-window count
	// was first visible, the last late-drop counters, the round-trip times.
	poll *poller
	// latency[cluster][s] is window s's release latency in milliseconds.
	latency map[string][]float64
	// stores are the recorded stores, filled in by readback.
	stores []*storeRef
}

// stream drives the daemon with the workload's lanes, collects what it
// reported and shuts it down.
func (r *run) stream(proc *daemonProc) (*streamResult, error) {
	poll := startPoller(proc.query)
	start := time.Now()
	laneTimings := make([][]*streamTiming, len(r.plans))
	errs := make([]error, len(r.plans))
	var wg sync.WaitGroup
	for i, plans := range r.plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			laneTimings[i], errs[i] = sendLane(proc.ingest, plans, r.w.pace)
		}()
	}
	wg.Wait()
	perr := poll.stop()
	for _, err := range append(errs, perr) {
		if err != nil {
			return nil, fmt.Errorf("stream phase: %w\n%s", err, proc.stderr.String())
		}
	}
	sr := &streamResult{lanes: laneTimings, reports: map[string]string{}, poll: poll}
	for _, lane := range laneTimings {
		sr.timings = append(sr.timings, lane...)
	}
	for _, st := range sr.timings {
		text, err := fetchReport(proc.query, st.plan.cluster)
		if err != nil {
			return nil, err
		}
		sr.reports[st.plan.cluster] = text
	}
	var err error
	if sr.exit, err = proc.stop(); err != nil {
		return nil, err
	}
	sr.wall = time.Since(start)
	r.streamMetrics(proc, sr)
	return sr, nil
}

// streamMetrics derives the daemon-side metrics and exact-count checks from
// a finished stream phase.
func (r *run) streamMetrics(proc *daemonProc, sr *streamResult) {
	m, exit, wall := r.res.Metrics, sr.exit, sr.wall.Seconds()
	var records, windows int64
	var blocked, laneWall time.Duration
	var lateMax time.Duration
	var wireBytes int64
	for _, st := range sr.timings {
		records += int64(st.plan.tr.sent)
		windows += int64(exit.windows[st.plan.cluster])
		blocked += st.blocked
		laneWall += st.last.Sub(st.first)
		wireBytes += st.plan.tr.wireBytes
		if st.lateMax > lateMax {
			lateMax = st.lateMax
		}
	}
	r.res.Counts["records"] = records
	r.res.Counts["windows"] = windows
	m["records_per_s"] = float64(records) / wall
	m["windows_per_s"] = float64(windows) / wall
	m["cpu_s_per_mrec"] = exit.cpu.Seconds() / (float64(records) / 1e6)
	m["peak_rss_mb"] = float64(exit.hwmKB) / 1024

	// Release latency: from the send of the message that closes a window
	// (its scheduled time in the open loop, the return of its write in the
	// closed loop) to the first poll that shows the window released. The
	// percentiles are taken after verification, which turns a window whose
	// report is wrong into +Inf.
	sr.latency = map[string][]float64{}
	for _, st := range sr.timings {
		closing := st.plan.tr.closingMessage(r.w.flags.geo)
		seen := sr.poll.seen[st.plan.cluster]
		for s := 0; s < len(closing) && s < len(seen); s++ {
			from := st.done[closing[s]]
			if r.w.pace > 0 {
				from = st.due[closing[s]]
			}
			sr.latency[st.plan.cluster] = append(sr.latency[st.plan.cluster], float64(seen[s].Sub(from))/1e6)
		}
	}

	m["llmprismd.cpu_util"] = exit.cpu.Seconds() / wall
	m["llmprismd.backpressure_ratio"] = blocked.Seconds() / laneWall.Seconds()
	m["llmprismd.shutdown_ms"] = float64(exit.shutdown) / 1e6
	m["llmprismd.boot_ms"] = float64(proc.boot) / 1e6
	m["llmprismd.query_ms_p50"] = stats.Median(sr.poll.queryMs)
	m["gen.late_ms_max"] = float64(lateMax) / 1e6
	m["gen.bytes_per_rec"] = float64(wireBytes) / float64(records)
	fast, slow := 0.0, math.Inf(1)
	for _, lane := range sr.lanes {
		var recs int64
		for _, st := range lane {
			recs += int64(st.plan.tr.sent)
		}
		rate := float64(recs) / lane[len(lane)-1].last.Sub(lane[0].first).Seconds()
		fast, slow = math.Max(fast, rate), math.Min(slow, rate)
	}
	m["llmprismd.lane_fast_records_per_s"] = fast
	m["llmprismd.lane_slow_records_per_s"] = slow

	// The ru_maxrss trap (see daemonProc.vmHWM): the rusage figure carries
	// the generator's resident set across exec, so it can only overstate.
	r.res.check(exit.maxrssKB >= exit.hwmKB-1024,
		"ru_maxrss %d kB below VmHWM %d kB: the vfork seeding assumption no longer holds", exit.maxrssKB, exit.hwmKB)
	m["llmprismd.maxrss_over_hwm"] = float64(exit.maxrssKB) / float64(exit.hwmKB)

	// Stream-level exact counts: windows released against grid arithmetic,
	// late drops against what the generator injected.
	for _, st := range sr.timings {
		c, tr := st.plan.cluster, st.plan.tr
		want := tr.gridWindows(r.w.flags.geo)
		r.res.check(exit.windows[c] == want, "cluster %s: daemon released %d windows, grid arithmetic says %d", c, exit.windows[c], want)
		r.res.check(exit.late[c] == tr.lateAssignments, "cluster %s: daemon dropped %d late assignments, generator injected %d", c, exit.late[c], tr.lateAssignments)
		r.res.check(sr.poll.late[c] == tr.lateAssignments, "cluster %s: /v1/clusters shows %d late drops, generator injected %d", c, sr.poll.late[c], tr.lateAssignments)
	}
}

// releaseMetrics reduces the release-latency sample to its percentiles.
func (r *run) releaseMetrics(sr *streamResult) error {
	var lat []float64
	for _, l := range sr.latency {
		lat = append(lat, l...)
	}
	if len(lat) == 0 {
		return fmt.Errorf("stream phase: no window release was observed")
	}
	m := r.res.Metrics
	m["release_ms_p50"] = finite(stats.Median(lat))
	m["llmprismd.release_ms_p90"] = finite(stats.Percentile(lat, 90))
	m["llmprismd.release_ms_max"] = finite(stats.Max(lat))
	m["llmprismd.release_samples"] = float64(len(lat))
	return nil
}

// finite maps +Inf (a failed window's latency) to the largest float, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// splitWindows cuts report text into one block per window.
func splitWindows(text string) []string {
	var blocks []string
	for len(text) > 0 {
		next := strings.Index(text[1:], "\nwindow ")
		if next < 0 {
			blocks = append(blocks, text)
			break
		}
		blocks = append(blocks, text[:next+2])
		text = text[next+2:]
	}
	return blocks
}
