package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/bocd"
	"github.com/llmprism/llmprism/internal/checkpoint"
	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/stats"
	"github.com/llmprism/llmprism/internal/stream"
)

// The traced pass is an in-process shadow of what one daemon cluster
// session does per window — stream routing, frame build, the stages of
// AnalyzeFrameContext, Monitor.annotate and the sinks — calling each
// layer's public functions from here with a span around every call. The
// program under test is not instrumented; the shadow is checked against
// it (report DeepEqual per window, report text per session) so its stage
// times describe the real pipeline.

const (
	// traceMaxWindows and traceRecordBudget (in record-to-window
	// assignments) bound the slice of the first trace the pass covers; both
	// are fixed so traced counts repeat.
	traceMaxWindows   = 20
	traceRecordBudget = 120_000
	// speedupWindows is how many windows are re-analyzed at full fan-out
	// for pool.speedup.
	speedupWindows = 2
)

// span is one timed call. Parent 0 means a root; times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Window int    `json:"window"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, window int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Window: window, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// childTime sums the durations of a span's direct children.
func (t *tracer) childTime(id int) time.Duration {
	var d int64
	for _, s := range t.spans[id:] { // children are begun after their parent
		if s.Parent == id {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// analyzerConfig resolves the analysis configuration a session built from
// sc runs its windows with — session.Config.TieredAnalyzer's option set,
// with localization moved out of the per-window analysis exactly as
// NewMonitor moves it when chronic suppression is on.
func analyzerConfig(sc session.Config) (cfg llmprism.Config, relocalize bool) {
	for _, opt := range sc.AnalyzerOptions() {
		opt(&cfg)
	}
	topo := sc.Topo
	llmprism.WithSwitchTiers(func(sw llmprism.SwitchID) int {
		if topo.IsSpine(sw) {
			return 1
		}
		return 0
	})(&cfg)
	cfg.Workers = 1
	cfg.Parallel.Split.Detectors = bocd.NewPool(cfg.Parallel.Split.BOCD)
	cfg.Timeline.Split.Detectors = bocd.NewPool(cfg.Timeline.Split.BOCD)
	if cfg.Localize && sc.Suppress {
		relocalize = true
		cfg.Localize = false
	}
	return cfg, relocalize
}

// shadow carries the continuity state Monitor keeps between windows.
type shadow struct {
	tr         *tracer
	cfg        llmprism.Config
	sc         session.Config
	relocalize bool
	registry   *jobrec.Registry
	incidents  *diagnose.IncidentTracker
	suspects   *localize.Tracker

	jobs, pairs, steps, alerts, nSuspects int
	bocdNs, bocdObs                       int64
}

func localizeJobs(r *llmprism.Report, cfg localize.Config) []localize.Suspect {
	jobs := make([]localize.Job, len(r.Jobs))
	for i, jr := range r.Jobs {
		jobs[i] = localize.Job{ID: int(jr.JobID), Records: jr.Records, Types: jr.Types, DPGroups: jr.DPGroups, Alerts: jr.Alerts}
	}
	return localize.Localize(jobs, r.SwitchAlerts, cfg)
}

// analyze is AnalyzeFrameContext at one worker, stage by stage. It returns
// the report and the id of the span that covers the whole analysis.
func (s *shadow) analyze(f *flow.Frame, parent, win int) (*llmprism.Report, int) {
	t, cfg := s.tr, s.cfg
	root := t.begin("analyze", parent, win)
	defer t.end(root)

	id := t.begin("jobrec.recognize", root, win)
	clusters := jobrec.RecognizeFrame(f, s.sc.Topo, cfg.Recognition)
	views := jobrec.SelectJobs(f, clusters)
	t.end(id)
	s.jobs += len(clusters)

	report := &llmprism.Report{}
	merged := diagnose.NewSeriesAccum(cfg.Diagnosis)
	accums := make([]*diagnose.SeriesAccum, len(clusters))
	for i, cluster := range clusters {
		v := views[i]
		id = t.begin("parallel.identify", root, win)
		cls := parallel.IdentifyView(v, cfg.Parallel)
		t.end(id)
		s.pairs += v.NumPairs()

		id = t.begin("timeline.reconstruct", root, win)
		tls := timeline.ReconstructView(v, cls.Types, cfg.Timeline)
		t.end(id)
		for _, tl := range tls {
			s.steps += len(tl.Steps)
		}

		id = t.begin("diagnose.job", root, win)
		var alerts []diagnose.Alert
		alerts = append(alerts, diagnose.CrossStep(tls, cfg.Diagnosis)...)
		alerts = append(alerts, diagnose.CrossGroup(tls, cls.DPGroups, cfg.Diagnosis)...)
		t.end(id)

		id = t.begin("diagnose.series", root, win)
		accums[i] = diagnose.NewSeriesAccum(cfg.Diagnosis)
		accums[i].AddView(v, cls.Types)
		t.end(id)

		id = t.begin("flow.materialize", root, win)
		records := v.Records()
		t.end(id)

		report.Jobs = append(report.Jobs, llmprism.JobReport{
			Cluster: cluster, Records: records, Types: cls.Types, DPGroups: cls.DPGroups,
			StepsPerPair: cls.StepsPerPair, Timelines: tls, Alerts: alerts,
		})
	}
	id = t.begin("diagnose.series", root, win)
	for _, a := range accums {
		merged.Merge(a)
	}
	report.SwitchSeries = merged.Series()
	t.end(id)

	id = t.begin("diagnose.switch", root, win)
	report.SwitchAlerts = diagnose.SwitchDiagnose(report.SwitchSeries, cfg.Diagnosis)
	t.end(id)

	if cfg.Localize {
		id = t.begin("localize", root, win)
		report.Suspects = localizeJobs(report, cfg.Localization)
		t.end(id)
	}
	return report, root
}

// annotate is Monitor.annotate without the coverage guard (the daemon
// never enables it).
func (s *shadow) annotate(r *llmprism.Report, parent, win int) {
	t := s.tr
	root := t.begin("annotate", parent, win)
	defer t.end(root)

	id := t.begin("jobrec.registry", root, win)
	ids := s.registry.Assign(r.Window.Seq, r.Window.Start, clustersOf(r))
	t.end(id)

	var alerts []diagnose.JobAlert
	for i := range r.Jobs {
		r.Jobs[i].JobID = ids[i]
		for _, a := range r.Jobs[i].Alerts {
			alerts = append(alerts, diagnose.JobAlert{Job: int(ids[i]), Alert: a})
		}
	}
	for _, a := range r.SwitchAlerts {
		alerts = append(alerts, diagnose.JobAlert{Alert: a})
	}
	s.alerts += len(alerts)
	id = t.begin("diagnose.incidents", root, win)
	r.Incidents = s.incidents.Observe(alerts)
	t.end(id)

	if s.sc.Suppress {
		chronic := make(map[diagnose.IncidentKey]bool)
		for _, inc := range r.Incidents {
			if inc.Chronic && inc.StillFiring {
				chronic[inc.Key] = true
			}
		}
		if s.relocalize {
			cfg := s.cfg.Localization
			if len(chronic) > 0 {
				cfg.Filter = func(job int, a diagnose.Alert) bool { return !chronic[diagnose.KeyOf(job, a)] }
			}
			id = t.begin("localize", root, win)
			r.Suspects = localizeJobs(r, cfg)
			t.end(id)
		}
		if len(chronic) > 0 {
			drop := func(alerts []diagnose.Alert, job int) []diagnose.Alert {
				kept := alerts[:0]
				for _, a := range alerts {
					if !chronic[diagnose.KeyOf(job, a)] {
						kept = append(kept, a)
					}
				}
				if len(kept) == 0 {
					return nil
				}
				return kept
			}
			for i := range r.Jobs {
				r.Jobs[i].Alerts = drop(r.Jobs[i].Alerts, int(ids[i]))
			}
			r.SwitchAlerts = drop(r.SwitchAlerts, 0)
		}
	}
	s.nSuspects += len(r.Suspects)
	if s.suspects != nil {
		id = t.begin("localize.tracker", root, win)
		s.suspects.Observe(r.Window.Start, r.Suspects)
		r.FusedSuspects = s.suspects.Fused()
		t.end(id)
	}
}

// splitCost times bocd.SplitTimes over exactly the inputs the analysis
// feeds it for this window: each pair span's start times (parallel) and
// each rank's DP-flow start times (timeline).
func (s *shadow) splitCost(f *flow.Frame, r *llmprism.Report) {
	views := jobrec.SelectJobs(f, clustersOf(r))
	for i, v := range views {
		types := r.Jobs[i].Types
		var inputs [][]time.Time
		for p := 0; p < v.NumPairs(); p++ {
			lo, hi := v.PairSpan(p)
			if hi-lo < 2 {
				continue
			}
			times := make([]time.Time, 0, hi-lo)
			for row := lo; row < hi; row++ {
				times = append(times, f.Start(row))
			}
			inputs = append(inputs, times)
		}
		rank := map[flow.Addr][]time.Time{}
		for _, ri := range v.Rows() {
			row := int(ri)
			if types[f.PairOf(row)] != parallel.TypeDP {
				continue
			}
			src, dst := f.Src(row), f.Dst(row)
			rank[src] = append(rank[src], f.Start(row))
			if dst != src {
				rank[dst] = append(rank[dst], f.Start(row))
			}
		}
		pairInputs := len(inputs)
		for _, times := range rank {
			if len(times) >= 4 {
				inputs = append(inputs, times)
			}
		}
		for k, times := range inputs {
			cfg := s.cfg.Parallel.Split
			if k >= pairInputs {
				cfg = s.cfg.Timeline.Split
			}
			t0 := time.Now()
			bocd.SplitTimes(times, cfg)
			s.bocdNs += int64(time.Since(t0))
			if len(times) > 2 {
				s.bocdObs += int64(len(times) - 1)
			}
		}
	}
}

func clustersOf(r *llmprism.Report) []jobrec.Cluster {
	out := make([]jobrec.Cluster, len(r.Jobs))
	for i := range r.Jobs {
		out[i] = r.Jobs[i].Cluster
	}
	return out
}

// traceSlice picks the frames of the first trace the pass covers: from a
// few windows before the injected fault starts (frame 0 when there is
// none) until the window or record budget is reached.
func traceSlice(tr *trace, geo geometry) (lo, hi int) {
	if len(tr.faults.Faults) > 0 {
		lo = int((tr.faults.Faults[0].At - 4*geo.stride()) / frameInterval)
		if lo < 0 {
			lo = 0
		}
	}
	most := int((time.Duration(traceMaxWindows)*geo.stride() + geo.lateness) / frameInterval)
	least := int((geo.width + geo.stride() + geo.lateness) / frameInterval)
	records := 0
	for hi = lo; hi < len(tr.ref) && hi-lo < most; hi++ {
		if records >= traceRecordBudget && hi-lo >= least {
			break
		}
		records += tr.ref[hi].Len() * geo.windowsPerRecord()
	}
	return lo, hi
}

func medianMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	return stats.Median(ms)
}

func perWin(d time.Duration, windows int, unit time.Duration) float64 {
	if windows == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(windows)
}

func perRec(d time.Duration, records int64) float64 {
	if records == 0 {
		return 0
	}
	return float64(d) / float64(records)
}

// traced is one traced pass: the slice of the first trace it covers and
// the session configuration the daemon ran that trace with.
type traced struct {
	r      *run
	tr     *trace
	geo    geometry
	sc     session.Config
	frames []*flow.Frame
	// pushed is the slice's record count.
	pushed int64
}

// tracedPass runs the shadow over a slice of the workload's first trace
// and fills in the per-layer metrics; spans go to bench/out/.
func (r *run) tracedPass() error {
	tr := r.traces[0]
	t := &traced{r: r, tr: tr, geo: r.w.flags.geo, sc: r.w.flags.sessionConfig(tr.topo)}
	lo, hi := traceSlice(tr, t.geo)
	t.frames = tr.ref[lo:hi]
	for _, f := range t.frames {
		t.pushed += int64(f.Len())
	}
	want, err := t.sessionPass()
	if err != nil {
		return err
	}
	if err := t.wirePass(); err != nil {
		return err
	}
	eng, results, err := t.routePass()
	if err != nil {
		return err
	}
	sh, got, err := t.windowPass(eng, results)
	if err != nil {
		return err
	}
	r.res.check(got == want, "traced session: shadow report text differs from session.Session over the same frames")
	out := filepath.Join(r.env.root, "bench", "out", fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.seed))
	return sh.tr.write(out)
}

// sessionPass runs the program's own session — store and checkpoint on —
// over the slice: the text the shadow must reproduce, and the session-level
// call times.
func (t *traced) sessionPass() (string, error) {
	m := t.r.res.Metrics
	cfg := t.sc
	cfg.StoreDir = filepath.Join(t.r.workDir, "trace-session.llps")
	cfg.CheckpointPath = filepath.Join(t.r.workDir, "trace-session.llpk")
	cfg.Rotate.RotateWindows = t.r.w.flags.rotateWindows
	t0 := time.Now()
	sess, err := session.Open(context.Background(), cfg)
	if err != nil {
		return "", err
	}
	m["session.open_ms"] = float64(time.Since(t0)) / 1e6
	var text strings.Builder
	var pushTimes []time.Duration
	for _, f := range t.frames {
		t0 := time.Now()
		reports, err := sess.PushFrame(f)
		if err != nil {
			sess.Abort()
			return "", err
		}
		pushTimes = append(pushTimes, time.Since(t0))
		session.PrintReports(&text, reports)
	}
	t0 = time.Now()
	reports, err := sess.Close()
	if err != nil {
		return "", err
	}
	m["session.close_ms"] = float64(time.Since(t0)) / 1e6
	m["session.push_ms_p50"] = medianMs(pushTimes)
	session.PrintReports(&text, reports)
	return text.String(), nil
}

// wirePass encodes the slice's frames as LPW1 messages and times reading
// them back through session.ReadFrameMessage.
func (t *traced) wirePass() error {
	var wire bytes.Buffer
	for _, f := range t.frames {
		if err := session.WriteFrameMessage(&wire, f); err != nil {
			return err
		}
	}
	rd := bytes.NewReader(wire.Bytes())
	t0 := time.Now()
	for range t.frames {
		if _, err := session.ReadFrameMessage(rd); err != nil {
			return err
		}
	}
	t.r.res.Metrics["wire.decode_ns_per_rec"] = perRec(time.Since(t0), t.pushed)
	return nil
}

// routePass pushes the slice through the stream engine with an analyzer
// that does nothing, timing the routing and collecting every window's
// frame for the window pass.
func (t *traced) routePass() (*stream.Engine[struct{}], []stream.Result[struct{}], error) {
	ctx := context.Background()
	eng := stream.New(stream.Config{Width: t.geo.width, Hop: t.geo.hop, Lateness: t.geo.lateness, MaxInFlight: 2},
		func(context.Context, stream.Window, *flow.Frame) (struct{}, error) { return struct{}{}, nil })
	var results []stream.Result[struct{}]
	var route time.Duration
	for _, f := range t.frames {
		t0 := time.Now()
		if err := eng.PushFrame(ctx, f); err != nil {
			return nil, nil, err
		}
		route += time.Since(t0)
		results = append(results, eng.Ready()...)
	}
	flushed, err := eng.Flush(ctx)
	if err != nil {
		return nil, nil, err
	}
	results = append(results, flushed...)
	var routed int64
	for _, res := range results {
		routed += int64(res.Rows)
	}
	m := t.r.res.Metrics
	m["stream.route_ns_per_rec"] = perRec(route, t.pushed)
	m["stream.rows_routed_ratio"] = float64(routed) / float64(t.pushed)
	return eng, results, nil
}

// windowPass goes window by window: the reference analysis (one worker,
// then full fan-out on the first few), the BOCD and frame-codec costs in
// isolation, the staged shadow with its continuity annotations, and the
// sinks. It returns the shadow and the report text it produced.
func (t *traced) windowPass(eng *stream.Engine[struct{}], results []stream.Result[struct{}]) (*shadow, string, error) {
	r, geo, topo := t.r, t.geo, t.tr.topo
	m := r.res.Metrics
	cfg, relocalize := analyzerConfig(t.sc)
	sh := &shadow{
		tr: &tracer{t0: time.Now()}, cfg: cfg, sc: t.sc, relocalize: relocalize,
		registry:  jobrec.NewRegistry(jobrec.RegistryConfig{}),
		incidents: diagnose.NewIncidentTracker(diagnose.IncidentConfig{}),
	}
	if t.sc.Localize {
		sh.suspects = localize.NewTracker(localize.TrackerConfig{})
	}
	serial := llmprism.New(llmprism.WithConfig(cfg))
	fanned := cfg
	fanned.Workers = 0
	fanned.Parallel.Split.Detectors = bocd.NewPool(cfg.Parallel.Split.BOCD)
	fanned.Timeline.Split.Detectors = bocd.NewPool(cfg.Timeline.Split.BOCD)
	wide := llmprism.New(llmprism.WithConfig(fanned))

	storeDir := filepath.Join(r.workDir, "trace-shadow.llps")
	ckPath := filepath.Join(r.workDir, "trace-shadow.llpk")
	sw, err := archive.CreateStoreWriter(storeDir, archive.Meta{Width: geo.width, Hop: geo.stride(), Lateness: geo.lateness},
		archive.StorePolicy{RotateWindows: r.w.flags.rotateWindows})
	if err != nil {
		return nil, "", err
	}
	defer sw.Abort()

	var (
		text                      strings.Builder
		analyzed                  int
		rows                      int64
		refTimes, saveTimes       []time.Duration
		coverage, overhead        []float64
		refTotal, build, encode   time.Duration
		appendPlain, appendRotate time.Duration
		nPlain, nRotate           int
		serialSpeed, wideSpeed    time.Duration
		allocBytes, allocCount    uint64
		ms0, ms1                  runtime.MemStats
	)
	for _, res := range results {
		win, f := res.Window.Seq, res.Frame
		var ref *llmprism.Report
		if f.Len() > 0 {
			analyzed++
			rows += int64(f.Len())

			// Reference work first, outside the span tree.
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			ref, err = serial.AnalyzeFrame(f, topo)
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, "", err
			}
			refTimes = append(refTimes, d)
			refTotal += d
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			allocCount += ms1.Mallocs - ms0.Mallocs
			if analyzed <= speedupWindows {
				serialSpeed += d
				t0 = time.Now()
				if _, err := wide.AnalyzeFrame(f, topo); err != nil {
					return nil, "", err
				}
				wideSpeed += time.Since(t0)
			}
			sh.splitCost(f, ref)

			// Frame build and encode: the stream layer's and the sinks'
			// work on this window. The builder is fed in start order, the
			// closest stand-in for arrival order.
			b := flow.NewFrameBuilder()
			for _, rec := range f.RecordsByStart() {
				b.AppendRecord(rec)
			}
			t0 = time.Now()
			b.BuildParallel(0)
			build += time.Since(t0)
			t0 = time.Now()
			if _, err := f.WriteTo(io.Discard); err != nil {
				return nil, "", err
			}
			encode += time.Since(t0)
		}

		root := sh.tr.begin("window", 0, win)
		report := &llmprism.Report{}
		if f.Len() > 0 {
			var span int
			t0 := time.Now()
			report, span = sh.analyze(f, root, win)
			whole := time.Since(t0)
			// Per window, then the median: the reference and the shadow run
			// one after the other, so a noisy moment hits only one of them.
			refTime := refTimes[len(refTimes)-1]
			coverage = append(coverage, float64(sh.tr.childTime(span))/float64(refTime))
			overhead = append(overhead, float64(whole)/float64(refTime))
			r.res.check(reflect.DeepEqual(report, ref), "traced window %d: shadow pipeline report differs from Analyzer.AnalyzeFrame", win)
		}
		report.Window = llmprism.WindowInfo{Seq: win, Start: res.Window.Start, End: res.Window.End}
		sh.annotate(report, root, win)

		id := sh.tr.begin("archive.append", root, win)
		before := sw.Segments()
		sw.SetAnchor(eng.Anchor())
		t0 := time.Now()
		if err := sw.Append(win, res.Window.Start, res.Window.End, f); err != nil {
			return nil, "", err
		}
		d := time.Since(t0)
		sh.tr.end(id)
		if sw.Segments() > before {
			appendRotate, nRotate = appendRotate+d, nRotate+1
		} else {
			appendPlain, nPlain = appendPlain+d, nPlain+1
		}

		id = sh.tr.begin("checkpoint.save", root, win)
		ck := &checkpoint.Checkpoint{
			Width: geo.width, Hop: geo.stride(), Lateness: geo.lateness, Engine: eng.StateAfter(res.Window),
			Registry: sh.registry.Snapshot(), Incidents: sh.incidents.Snapshot(),
		}
		if sh.suspects != nil {
			snap := sh.suspects.Snapshot()
			ck.Suspects = &snap
		}
		t0 = time.Now()
		if err := checkpoint.Save(ckPath, ck); err != nil {
			return nil, "", err
		}
		saveTimes = append(saveTimes, time.Since(t0))
		sh.tr.end(id)
		sh.tr.end(root)
		session.PrintReports(&text, []*llmprism.Report{report})
	}
	sw.SetAnchor(eng.Anchor())
	if err := sw.Close(); err != nil {
		return nil, "", err
	}
	r.res.Counts["traced_windows"] = int64(len(results))
	r.res.Counts["traced_rows"] = rows
	if analyzed == 0 {
		return nil, "", fmt.Errorf("traced pass: the slice holds no non-empty window")
	}
	if st, err := os.Stat(ckPath); err == nil {
		m["checkpoint.bytes"] = float64(st.Size())
	}
	if err := t.readShadowStore(storeDir, results, rows); err != nil {
		return nil, "", err
	}

	self := sh.tr.selfTimes()
	windows := len(results)
	m["jobrec.recognize_ms_per_win"] = perWin(self["jobrec.recognize"], analyzed, time.Millisecond)
	m["jobrec.registry_us_per_win"] = perWin(self["jobrec.registry"], windows, time.Microsecond)
	m["jobrec.jobs"] = float64(sh.jobs)
	m["parallel.identify_ms_per_win"] = perWin(self["parallel.identify"], analyzed, time.Millisecond)
	m["parallel.pairs"] = float64(sh.pairs)
	m["timeline.reconstruct_ms_per_win"] = perWin(self["timeline.reconstruct"], analyzed, time.Millisecond)
	m["timeline.steps"] = float64(sh.steps)
	m["diagnose.job_ms_per_win"] = perWin(self["diagnose.job"], analyzed, time.Millisecond)
	m["diagnose.series_ms_per_win"] = perWin(self["diagnose.series"], analyzed, time.Millisecond)
	m["diagnose.switch_ms_per_win"] = perWin(self["diagnose.switch"], analyzed, time.Millisecond)
	m["diagnose.incidents_us_per_win"] = perWin(self["diagnose.incidents"], windows, time.Microsecond)
	m["diagnose.alerts"] = float64(sh.alerts)
	m["localize.ms_per_win"] = perWin(self["localize"], windows, time.Millisecond)
	m["localize.tracker_us_per_win"] = perWin(self["localize.tracker"], windows, time.Microsecond)
	m["localize.suspects"] = float64(sh.nSuspects)
	m["flow.materialize_ns_per_rec"] = perRec(self["flow.materialize"], rows)
	m["flow.build_ns_per_rec"] = perRec(build, rows)
	m["flow.encode_ns_per_rec"] = perRec(encode, rows)
	m["bocd.split_ns_per_obs"] = perRec(time.Duration(sh.bocdNs), sh.bocdObs)
	m["bocd.obs_per_rec"] = float64(sh.bocdObs) / float64(rows)
	m["bocd.share"] = float64(sh.bocdNs) / float64(refTotal)
	m["pool.speedup"] = float64(serialSpeed) / float64(wideSpeed)
	m["analyze.ms_per_win_p50"] = medianMs(refTimes)
	m["analyze.alloc_mb_per_win"] = float64(allocBytes) / (1 << 20) / float64(analyzed)
	m["analyze.allocs_per_win"] = float64(allocCount) / float64(analyzed)
	m["archive.append_ms_per_win"] = perWin(appendPlain, nPlain, time.Millisecond)
	m["archive.rotate_ms"] = perWin(appendRotate, nRotate, time.Millisecond)
	m["checkpoint.save_ms_p50"] = medianMs(saveTimes)
	m["trace.windows"] = float64(windows)
	m["trace.coverage"] = stats.Median(coverage)
	m["trace.overhead_ratio"] = stats.Median(overhead)
	return sh, text.String(), nil
}

// readShadowStore reads the store the window pass appended back: open,
// full scan, and how much of it a one-stride query can prune.
func (t *traced) readShadowStore(dir string, results []stream.Result[struct{}], rows int64) error {
	m := t.r.res.Metrics
	t0 := time.Now()
	st, err := archive.OpenStore(dir)
	if err != nil {
		return err
	}
	m["archive.open_ms"] = float64(time.Since(t0)) / 1e6
	var storeBytes int64
	for _, seg := range st.Segments() {
		storeBytes += seg.Bytes
	}
	var read int64
	t0 = time.Now()
	if err := st.Scan(archive.Query{}, func(archive.Segment, *flow.Frame, int) error { read++; return nil }); err != nil {
		return err
	}
	m["archive.read_ns_per_rec"] = perRec(time.Since(t0), read)
	t.r.res.check(read == rows, "traced store: scan visited %d rows, the shadow appended %d", read, rows)
	mid := results[len(results)/2].Window.Start
	selected := len(st.Select(archive.Query{From: mid, To: mid.Add(t.geo.stride())}))
	m["archive.segments_pruned_ratio"] = 1 - float64(selected)/float64(st.NumSegments())
	m["archive.bytes_per_rec"] = float64(storeBytes) / float64(rows)
	return nil
}
