package llmprism

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/bocd"
	"github.com/llmprism/llmprism/internal/checkpoint"
	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/stream"
)

// WindowInfo locates a monitor report on the window grid: window Seq
// covers records whose start time falls in [Start, End). It is the zero
// value on reports produced by Analyze/AnalyzeFrame directly.
type WindowInfo struct {
	Seq        int
	Start, End time.Time
}

// Monitor performs continuous windowed analysis over an incoming flow
// record stream, the deployment mode of the paper: the collector feeds
// records as they are exported and every completed window is analyzed,
// yielding reports (and their alerts) in window order. Windows are cut on
// a grid anchored at the first record: width Window() wide, advancing by
// the hop (WithHop; default tumbling), closing once the event-time
// watermark — newest record start minus the allowed lateness
// (WithLateness) — passes their end. Completed windows that held no
// records still yield an (empty) report carrying their bounds, so report
// sequence numbers line up with wall-clock windows.
//
// Stream is the one ingestion path: it opens a pipelined session in which
// records append into per-window columnar builders as they arrive, closed
// windows are analyzed asynchronously on the analyzer's worker pool while
// newer records keep ingesting, and reports come back strictly in window
// order. Records later than the allowed lateness are dropped and counted.
//
// Reports gain cross-window continuity: a job registry matches each
// window's recognized endpoint sets against previous windows and stamps
// stable JobReport.JobID values, per-job change-point detectors are reused
// across windows via Reset (never rebuilt), and Report.Incidents carries
// first-seen/still-firing state per anomaly so a persistently slow rank is
// one ongoing incident rather than one alert pile per window. Two options
// make the feed fully incident-centric: WithChronicSuppression classifies
// anomalies that fire from the monitor's first windows and never resolve
// as chronic — platform steady state, not events — removing them from the
// alert surface and from localization evidence while keeping their
// incidents visible; and with localization enabled, Report.FusedSuspects
// ranks components by suspiciousness fused across the windows they stay
// suspect, so one persistent root cause rises above per-window noise.
//
// Monitor is not safe for concurrent use; drive its one Stream session
// from one goroutine.
type Monitor struct {
	analyzer *Analyzer
	mapper   jobrec.ServerMapper
	cfg      monitorConfig

	// Continuity state, driven strictly in window order.
	registry  *jobrec.Registry
	incidents *diagnose.IncidentTracker
	// suspects carries localization continuity (non-nil only when the
	// analyzer localizes): a component staying suspect across windows
	// keeps its first-seen time and windows count, and accumulates the
	// fused cross-window score behind Report.FusedSuspects.
	suspects *localize.Tracker
	// relocalize moves localization from the per-window analysis into
	// annotate (set when chronic suppression and localization are both on),
	// so chronic incidents — known only to the monitor's continuity state —
	// can be excluded from the localization evidence. locCfg is the
	// localization config the analyzer would have used.
	relocalize bool
	locCfg     localize.Config
	// covRecent is the coverage guard's rolling baseline: row counts of
	// the most recent healthy windows (non-nil state only when
	// WithCoverageGuard is on).
	covRecent []int64
	// resume holds the checkpoint this monitor was rebuilt from (nil for
	// a fresh session); Stream uses it to restore the grid position.
	resume *checkpoint.Checkpoint

	streaming bool
}

type monitorConfig struct {
	window      time.Duration
	hop         time.Duration
	lateness    time.Duration
	depth       int
	archiveSink func(ArchiveMeta) (ArchiveSink, error)
	anchor      time.Time
	suppress    bool
	incident    diagnose.IncidentConfig
	checkpoint  string
	coverage    CoverageConfig
	coverageOn  bool
}

// MonitorOption customizes a Monitor.
type MonitorOption func(*monitorConfig)

// WithHop sets the window stride. The default equals the window width
// (tumbling windows); a smaller hop yields overlapping windows — a record
// then belongs to every window covering its start time, including the
// leading partial phase windows that begin before the first record.
func WithHop(d time.Duration) MonitorOption {
	return func(c *monitorConfig) { c.hop = d }
}

// WithLateness sets the allowed out-of-orderness: a window closes only
// once a record this much past its end has been seen, so records up to the
// lateness bound out of order still land in the right window. Records
// later than the bound are dropped and counted (MonitorStream.Late).
// Default 0.
func WithLateness(d time.Duration) MonitorOption {
	return func(c *monitorConfig) { c.lateness = d }
}

// WithPipelineDepth bounds how many closed windows a Stream session
// analyzes concurrently; ingestion continues while they run. 1 disables
// pipelining; the default is 2 (window k+1 ingests while k analyzes).
func WithPipelineDepth(n int) MonitorOption {
	return func(c *monitorConfig) { c.depth = n }
}

// WithChronicSuppression makes the monitor classify persistent baseline
// anomalies as chronic and suppress them from the alert surface. An
// incident that fires from (effectively) the first observed window and
// keeps firing is a property of the deployment — a structurally slow
// trailing-rail DP group, a permanently oversubscribed link — not an
// event worth re-alerting every window. Once an incident turns chronic
// (see IncidentConfig), its alerts are removed from JobReport.Alerts and
// Report.SwitchAlerts, and it is excluded from the localization evidence,
// so localization ranks genuine faults instead of the deployment's known
// baseline. The incident itself stays visible in Report.Incidents with
// Chronic set. The zero cfg applies the documented defaults.
func WithChronicSuppression(cfg diagnose.IncidentConfig) MonitorOption {
	return func(c *monitorConfig) {
		c.suppress = true
		c.incident = cfg
	}
}

// WithArchive makes the monitor's Stream session record every completed
// window — its columnar frame, window bounds and the event-time grid
// anchor — into a binary trace archive written to w. The monitor stamps
// its own window geometry into the archive header, so the `llmprism
// replay` path (MonitorStream.PushFrame of each archived window's frame,
// grid pre-anchored via WithAnchor) reproduces the recorded reports bit for
// bit. MonitorStream.Close finalizes the archive's manifest; the caller
// still owns (and closes) w itself. It is WithArchiveSink over an
// archive.Writer on w.
func WithArchive(w io.Writer) MonitorOption {
	return WithArchiveSink(func(meta ArchiveMeta) (ArchiveSink, error) { return archive.NewWriter(w, meta) })
}

// ArchiveMeta is the window geometry a Stream session hands its archive
// sink at open time — the geometry the sink must stamp into whatever
// container it writes.
type ArchiveMeta = archive.Meta

// ArchiveSink persists a Stream session's released windows. Append
// receives every window in emission (seq) order with its bounds and
// already-built columnar frame; SetAnchor is called with the session's
// event-time grid origin before each Append (and at Close), so a sink that
// rotates into multiple containers can stamp the anchor on each; Close
// finalizes the container. archive.Writer (a caller's io.Writer),
// archive.FileWriter (one file) and archive.StoreWriter (a rotating
// directory of them) satisfy it.
type ArchiveSink interface {
	Append(seq int, start, end time.Time, f *FlowFrame) error
	SetAnchor(t time.Time)
	Close() error
}

// WithArchiveSink makes the Stream session record every completed window
// through a caller-built sink — the one capture path; the session layer
// uses it for single-file archives and rotating multi-segment stores
// alike. The factory runs when Stream opens, receiving the session's
// resolved window geometry (which a Monitor only knows after
// NewMonitor/ResumeMonitor has applied every option). The last
// WithArchive/WithArchiveSink given wins.
func WithArchiveSink(open func(ArchiveMeta) (ArchiveSink, error)) MonitorOption {
	return func(c *monitorConfig) { c.archiveSink = open }
}

// WithAnchor pre-sets the Stream session's event-time grid origin instead
// of anchoring at the earliest record of the first push. Replay uses it to
// restore a recorded session's exact window grid (archives carry the
// anchor); it is not needed for live collection.
func WithAnchor(t time.Time) MonitorOption {
	return func(c *monitorConfig) { c.anchor = t }
}

// WithCheckpoint makes the monitor's Stream session persist its continuity
// state — grid position, job registry, incident tracker, suspect tracker,
// coverage baseline — to path after every released window, atomically
// (temp file + rename; a crash leaves the previous checkpoint, never a
// torn one). A monitor rebuilt from the file with ResumeMonitor continues
// the session at the next window with the same JobIDs, incident first-seen
// times and fused suspect scores the uninterrupted session would have
// produced.
func WithCheckpoint(path string) MonitorOption {
	return func(c *monitorConfig) { c.checkpoint = path }
}

// CoverageConfig tunes the monitor's collection-coverage guard.
type CoverageConfig struct {
	// BaselineWindows is the length of the rolling baseline: the row
	// counts of this many recent healthy windows define the expected
	// per-window flow volume. Default 8.
	BaselineWindows int
	// MinBaseline is how many healthy windows must accumulate before the
	// guard starts classifying (earlier windows pass unjudged). Default 3.
	MinBaseline int
	// DegradedBelow marks a window degraded when its row count falls
	// below this fraction of the baseline mean. Default 0.5.
	DegradedBelow float64
}

func (c CoverageConfig) withDefaults() CoverageConfig {
	if c.BaselineWindows <= 0 {
		c.BaselineWindows = 8
	}
	if c.MinBaseline <= 0 {
		c.MinBaseline = 3
	}
	if c.DegradedBelow <= 0 || c.DegradedBelow >= 1 {
		c.DegradedBelow = 0.5
	}
	return c
}

// Coverage is one window's collection-coverage signal (see Report).
type Coverage struct {
	// Rows is the window's observed flow record count.
	Rows int
	// Baseline is the rolling mean row count of recent healthy windows;
	// 0 until MinBaseline healthy windows have accumulated.
	Baseline float64
	// Ratio is Rows/Baseline (0 while no baseline is established).
	Ratio float64
	// Degraded marks a window whose coverage fell below DegradedBelow of
	// baseline — including a fully empty window once a baseline exists.
	Degraded bool
}

// WithCoverageGuard makes the monitor compare every window's observed flow
// volume against a rolling baseline of recent healthy windows and stamp
// the result on Report.Coverage. A window whose volume collapses below the
// configured fraction of baseline — a collector outage, a switch mirror
// blackout — is marked degraded: its alerts are withheld and the
// continuity trackers (job registry, incidents, suspects) are frozen for
// the window, because diagnoses drawn from thinned evidence are false
// alarms waiting to happen, not detections. Healthy windows refresh the
// baseline; degraded ones do not poison it. The zero cfg applies the
// documented defaults.
func WithCoverageGuard(cfg CoverageConfig) MonitorOption {
	return func(c *monitorConfig) {
		c.coverageOn = true
		c.coverage = cfg.withDefaults()
	}
}

// NewMonitor returns a Monitor that analyzes consecutive windows of the
// given width (default 1 minute, the paper's operating point). The
// analyzer's change-point detectors are pooled across the monitor's
// windows — reused via Reset instead of rebuilt — which never changes
// results.
func NewMonitor(analyzer *Analyzer, mapper jobrec.ServerMapper, window time.Duration, opts ...MonitorOption) (*Monitor, error) {
	if analyzer == nil {
		return nil, fmt.Errorf("llmprism: nil analyzer")
	}
	if mapper == nil {
		return nil, fmt.Errorf("llmprism: nil server mapper")
	}
	if window <= 0 {
		window = time.Minute
	}
	cfg := monitorConfig{window: window, hop: window, depth: 2}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.hop <= 0 {
		cfg.hop = window
	}
	if cfg.hop > cfg.window {
		return nil, fmt.Errorf("llmprism: hop %v exceeds window %v", cfg.hop, cfg.window)
	}
	if cfg.lateness < 0 {
		return nil, fmt.Errorf("llmprism: negative lateness %v", cfg.lateness)
	}
	if cfg.depth <= 0 {
		cfg.depth = 2
	}
	// Private analyzer copy with pooled detectors: every window's
	// SplitTimes passes draw Reset detectors from these pools instead of
	// allocating fresh ones.
	acfg := analyzer.cfg
	acfg.Parallel.Split.Detectors = bocd.NewPool(acfg.Parallel.Split.BOCD)
	acfg.Timeline.Split.Detectors = bocd.NewPool(acfg.Timeline.Split.BOCD)
	m := &Monitor{
		mapper:    mapper,
		cfg:       cfg,
		registry:  jobrec.NewRegistry(jobrec.RegistryConfig{}),
		incidents: diagnose.NewIncidentTracker(cfg.incident),
	}
	if acfg.Localize {
		m.suspects = localize.NewTracker(localize.TrackerConfig{})
		if cfg.suppress {
			// Chronic suppression must filter the localization evidence,
			// and chronic state lives in the monitor's in-order continuity
			// path — so localization moves out of the (parallel) analysis
			// into annotate. Same merged report, same in-order execution,
			// bit-identical suspects.
			m.relocalize = true
			m.locCfg = acfg.Localization
			acfg.Localize = false
		}
	}
	m.analyzer = &Analyzer{cfg: acfg}
	return m, nil
}

// ResumeMonitor rebuilds a monitor from a session checkpoint written by
// WithCheckpoint (or MonitorStream.Checkpoint): the window geometry comes
// from the checkpoint, the continuity trackers are restored, and the next
// Stream session continues the interrupted one — window Seq, JobIDs,
// incident first-seen times and fused suspect scores all pick up exactly
// where the checkpoint left them. The analyzer and options must match the
// original session's (a checkpoint restores state, not configuration);
// mismatched localization or coverage-guard settings are rejected. The
// feeder must then re-push, in the original order, every record whose
// start falls at or after ResumeFrom — the resumed reports are
// bit-identical to the uninterrupted session's from that window on.
func ResumeMonitor(analyzer *Analyzer, mapper jobrec.ServerMapper, r io.Reader, opts ...MonitorOption) (*Monitor, error) {
	ck, err := checkpoint.Read(r)
	if err != nil {
		return nil, fmt.Errorf("llmprism: resume: %w", err)
	}
	// The checkpoint's geometry is authoritative: append its hop/lateness
	// after the caller's options so a divergent WithHop/WithLateness cannot
	// misalign the restored grid.
	opts = append(append([]MonitorOption(nil), opts...), WithHop(ck.Hop), WithLateness(ck.Lateness))
	m, err := NewMonitor(analyzer, mapper, ck.Width, opts...)
	if err != nil {
		return nil, err
	}
	if (ck.Suspects != nil) != (m.suspects != nil) {
		return nil, fmt.Errorf("llmprism: resume: checkpoint localization state (%t) does not match analyzer (%t)",
			ck.Suspects != nil, m.suspects != nil)
	}
	if (ck.Coverage != nil) != m.cfg.coverageOn {
		return nil, fmt.Errorf("llmprism: resume: checkpoint coverage guard (%t) does not match options (%t)",
			ck.Coverage != nil, m.cfg.coverageOn)
	}
	m.registry.Restore(ck.Registry)
	m.incidents.Restore(ck.Incidents)
	if ck.Suspects != nil {
		m.suspects.Restore(*ck.Suspects)
	}
	if ck.Coverage != nil {
		m.covRecent = append([]int64(nil), ck.Coverage.Recent...)
	}
	m.resume = ck
	return m, nil
}

// ResumeFrom returns the start of the first window this resumed monitor's
// Stream session will emit — the boundary the feeder replays records from
// (every record at or after it, in the original order). It is the zero
// time on a monitor not built by ResumeMonitor.
func (m *Monitor) ResumeFrom() time.Time {
	if m.resume == nil {
		return time.Time{}
	}
	return m.resume.ResumeFrom()
}

// ResumeSeq returns the seq of the first window a resumed monitor's Stream
// session will emit (0 on a fresh monitor). An archive sink resuming a
// partially-written store salvages strictly below this boundary: every
// earlier window is checkpointed and must already be archived, every
// window at or past it will be re-emitted — and re-archived — by the
// resumed session.
func (m *Monitor) ResumeSeq() int {
	if m.resume == nil {
		return 0
	}
	return m.resume.Engine.Seq
}

// Window returns the monitor's window width.
func (m *Monitor) Window() time.Duration { return m.cfg.window }

// Hop returns the monitor's window stride.
func (m *Monitor) Hop() time.Duration { return m.cfg.hop }

// Lateness returns the monitor's allowed out-of-orderness.
func (m *Monitor) Lateness() time.Duration { return m.cfg.lateness }

// annotate stamps cross-window continuity onto one report: stable JobIDs
// from the registry, the incident view of the window's alerts (chronic
// baseline anomalies suppressed from the alert surface and the
// localization evidence when WithChronicSuppression is on), and the fused
// cross-window suspect ranking. rows is the window's record count, the
// coverage guard's input. Reports must be annotated in window order;
// MonitorStream.collect guarantees that.
func (m *Monitor) annotate(r *Report, rows int) {
	if m.cfg.coverageOn {
		r.Coverage = m.observeCoverage(rows)
		if r.Coverage.Degraded {
			// Thinned evidence must not fire alerts or corrupt continuity
			// state: withhold the window's alert surface and freeze every
			// tracker — no job matching (expiry clocks would tick against
			// artificially shrunken clusters), no incident observation
			// (open incidents would wrongly resolve, and chronic state is
			// unrecoverable once an incident reopens post-baseline), no
			// suspect scoring. The fused ranking still reflects the
			// evidence accumulated before the outage.
			for i := range r.Jobs {
				r.Jobs[i].Alerts = nil
			}
			r.SwitchAlerts = nil
			r.Suspects = nil
			if m.suspects != nil {
				r.FusedSuspects = m.suspects.Fused()
			}
			return
		}
	}
	clusters := make([]jobrec.Cluster, len(r.Jobs))
	for i := range r.Jobs {
		clusters[i] = r.Jobs[i].Cluster
	}
	ids := m.registry.Assign(r.Window.Seq, r.Window.Start, clusters)
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
	r.Incidents = m.incidents.Observe(alerts)

	if m.cfg.suppress {
		chronic := make(map[diagnose.IncidentKey]bool)
		for _, inc := range r.Incidents {
			if inc.Chronic && inc.StillFiring {
				chronic[inc.Key] = true
			}
		}
		if m.relocalize {
			cfg := m.locCfg
			if len(chronic) > 0 {
				cfg.Filter = func(job int, a diagnose.Alert) bool {
					return !chronic[diagnose.KeyOf(job, a)]
				}
			}
			r.Suspects = localizeReport(r, cfg)
		}
		if len(chronic) > 0 {
			for i := range r.Jobs {
				r.Jobs[i].Alerts = dropChronic(r.Jobs[i].Alerts, int(ids[i]), chronic)
			}
			r.SwitchAlerts = dropChronic(r.SwitchAlerts, 0, chronic)
		}
	}
	if m.suspects != nil {
		m.suspects.Observe(r.Window.Start, r.Suspects)
		r.FusedSuspects = m.suspects.Fused()
	}
}

// observeCoverage classifies one window's record count against the
// rolling baseline and, for healthy non-empty windows, folds the count
// into the baseline.
func (m *Monitor) observeCoverage(rows int) Coverage {
	cov := Coverage{Rows: rows}
	if len(m.covRecent) >= m.cfg.coverage.MinBaseline {
		var sum int64
		for _, v := range m.covRecent {
			sum += v
		}
		cov.Baseline = float64(sum) / float64(len(m.covRecent))
		if cov.Baseline > 0 {
			cov.Ratio = float64(rows) / cov.Baseline
			cov.Degraded = cov.Ratio < m.cfg.coverage.DegradedBelow
		}
	}
	if !cov.Degraded && rows > 0 {
		m.covRecent = append(m.covRecent, int64(rows))
		if n := len(m.covRecent) - m.cfg.coverage.BaselineWindows; n > 0 {
			m.covRecent = append(m.covRecent[:0], m.covRecent[n:]...)
		}
	}
	return cov
}

// dropChronic filters a job's (or the fabric's, job 0) alerts in place,
// removing the ones whose incident key is chronic.
func dropChronic(alerts []diagnose.Alert, job int, chronic map[diagnose.IncidentKey]bool) []diagnose.Alert {
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

// Stream opens a pipelined streaming session over the monitor: each pushed
// batch, as a frame, routes its rows into per-window columnar builders,
// closed windows analyze asynchronously (up to WithPipelineDepth at once) while newer
// records keep ingesting, and reports are released strictly in window
// order. ctx bounds every analysis started by the session. A monitor
// supports one Stream session; a second call is refused.
func (m *Monitor) Stream(ctx context.Context) (*MonitorStream, error) {
	if m.streaming {
		return nil, fmt.Errorf("llmprism: monitor already has a Stream session")
	}
	var sink ArchiveSink
	if m.cfg.archiveSink != nil {
		var err error
		sink, err = m.cfg.archiveSink(ArchiveMeta{Width: m.cfg.window, Hop: m.cfg.hop, Lateness: m.cfg.lateness})
		if err != nil {
			return nil, fmt.Errorf("llmprism: open archive sink: %w", err)
		}
	}
	m.streaming = true
	scfg := stream.Config{
		Width:       m.cfg.window,
		Hop:         m.cfg.hop,
		Lateness:    m.cfg.lateness,
		MaxInFlight: m.cfg.depth,
		Anchor:      m.cfg.anchor,
	}
	s := &MonitorStream{m: m, ctx: ctx, sink: sink}
	if m.resume != nil {
		es := m.resume.Engine
		scfg.Resume = &es
		s.lastState = &es
	}
	s.eng = stream.New(scfg, func(ctx context.Context, _ stream.Window, f *flow.Frame) (*Report, error) {
		if f.Len() == 0 {
			return &Report{}, nil
		}
		return m.analyzer.AnalyzeFrameContext(ctx, f, m.mapper)
	})
	return s, nil
}

// MonitorStream is one streaming ingestion session. Drive it from a single
// goroutine: Push batches as the collector exports them, consume the
// reports each Push releases, and Close at end of stream. After an error
// the session is dead; every later call returns the same error. A caller
// that must not wait for the next Push to release a finished window
// serializes a second goroutine with the first (one lock around every
// method), parks it on Completed and has it call Collect.
type MonitorStream struct {
	m    *Monitor
	ctx  context.Context
	eng  *stream.Engine[*Report]
	sink ArchiveSink
	// lastState is the grid state as of the most recently released window
	// — what Checkpoint serializes (nil until the first release on a
	// fresh session; a resumed session starts from its checkpoint).
	lastState *stream.State
	err       error
	closed    bool
}

// Push ingests one batch of records — in any order; records up to the
// monitor's lateness out of order land in their correct windows — and
// returns every report that became ready, in window order. A report is
// ready once its window's analysis and those of all earlier windows have
// finished; Push never blocks waiting for analysis except to hold the
// pipeline-depth bound. Which call returns a given report — this Push, a
// later one, a Collect in between, or Close — depends on when its analysis
// finishes; the sequence of reports over all calls does not. Push is
// PushFrame(NewFlowFrame(records)): the batch is built into one frame (one
// sort) and enters through the same seam as everything else.
func (s *MonitorStream) Push(records []FlowRecord) ([]*Report, error) {
	return s.PushFrame(flow.NewFrame(records))
}

// PushFrame ingests one already-columnar frame, with Push's contract — the
// stream's one way in: archive replay and the daemon's LPF1 wire ingest
// hand over decoded frames as they are, so a window never materializes
// per-record structs, and Push wraps its batch in a frame first. Every
// batching of the same records, as records or frames, yields the same
// windows, the same late counts and bit-identical reports and archived
// frames. A nil or empty frame ingests nothing and only collects.
func (s *MonitorStream) PushFrame(f *FlowFrame) ([]*Report, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, fmt.Errorf("llmprism: push on a closed monitor stream")
	}
	if err := s.eng.PushFrame(s.ctx, f); err != nil {
		s.err = err
		return nil, err
	}
	return s.Collect()
}

// Collect releases, without ingesting anything and without blocking, every
// report that is ready — the tail Push and PushFrame end with, callable on
// its own when Completed fires. Nothing ready (an earlier window is still
// analyzing, or the stream is closed and drained) returns nil, nil.
func (s *MonitorStream) Collect() ([]*Report, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.collect(s.eng.Ready())
}

// Completed returns the engine's coalescing completion signal: receivable
// after a window's analysis has finished, so a Collect may have something
// to release. It is the only member safe to use without serializing with
// the stream's other calls.
func (s *MonitorStream) Completed() <-chan struct{} { return s.eng.Completed() }

// Close flushes every remaining window — partial trailing windows
// included — waits for in-flight analyses and returns the remaining
// reports in window order: whatever no earlier Push or Collect released.
// With an archive sink configured it then stamps the grid anchor and
// closes the sink, which finalizes the capture. The session stays usable
// only for Late and Pending afterwards.
func (s *MonitorStream) Close() ([]*Report, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, fmt.Errorf("llmprism: monitor stream already closed")
	}
	s.closed = true
	results, err := s.eng.Flush(s.ctx)
	reports, cerr := s.collect(results)
	if cerr != nil {
		return reports, cerr
	}
	if err != nil {
		s.err = err
		return reports, err
	}
	if s.sink != nil {
		s.sink.SetAnchor(s.eng.Anchor())
		if err := s.sink.Close(); err != nil {
			s.err = fmt.Errorf("llmprism: finalize archive: %w", err)
			return reports, s.err
		}
	}
	return reports, nil
}

// collect stamps bounds and continuity onto completed windows, in order,
// and persists each window's frame when an archive sink is configured.
func (s *MonitorStream) collect(results []stream.Result[*Report]) ([]*Report, error) {
	var reports []*Report
	for _, res := range results {
		if res.Err != nil {
			s.err = fmt.Errorf("llmprism: monitor window at %v: %w", res.Window.Start, res.Err)
			return reports, s.err
		}
		r := res.Value
		r.Window = WindowInfo{Seq: res.Window.Seq, Start: res.Window.Start, End: res.Window.End}
		s.m.annotate(r, res.Rows)
		if s.sink != nil {
			// Anchor before every Append, not just at Close: a rotating
			// sink finalizes segments mid-session, and each must carry the
			// grid origin so any salvaged prefix replays on the same grid.
			s.sink.SetAnchor(s.eng.Anchor())
			if err := s.sink.Append(res.Window.Seq, res.Window.Start, res.Window.End, res.Frame); err != nil {
				s.err = fmt.Errorf("llmprism: archive window %d: %w", res.Window.Seq, err)
				return reports, s.err
			}
		}
		es := s.eng.StateAfter(res.Window)
		s.lastState = &es
		if s.m.cfg.checkpoint != "" {
			if err := checkpoint.Save(s.m.cfg.checkpoint, s.m.buildCheckpoint(es)); err != nil {
				s.err = fmt.Errorf("llmprism: checkpoint after window %d: %w", res.Window.Seq, err)
				return reports, s.err
			}
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// Checkpoint serializes the session's continuity state as of the most
// recently released window to w — the explicit counterpart of the
// WithCheckpoint file, for callers that manage persistence themselves. It
// errors while no window has been released yet (there is no boundary to
// checkpoint).
func (s *MonitorStream) Checkpoint(w io.Writer) error {
	if s.lastState == nil {
		return fmt.Errorf("llmprism: no window released yet; nothing to checkpoint")
	}
	return checkpoint.Write(w, s.m.buildCheckpoint(*s.lastState))
}

// buildCheckpoint assembles the continuity snapshot for the grid state es.
func (m *Monitor) buildCheckpoint(es stream.State) *checkpoint.Checkpoint {
	ck := &checkpoint.Checkpoint{
		Width:     m.cfg.window,
		Hop:       m.cfg.hop,
		Lateness:  m.cfg.lateness,
		Engine:    es,
		Registry:  m.registry.Snapshot(),
		Incidents: m.incidents.Snapshot(),
	}
	if m.suspects != nil {
		s := m.suspects.Snapshot()
		ck.Suspects = &s
	}
	if m.cfg.coverageOn {
		ck.Coverage = &checkpoint.CoverageState{Recent: append([]int64(nil), m.covRecent...)}
	}
	return ck
}

// Late returns how many record-to-window assignments were dropped because
// they arrived past the lateness bound.
func (s *MonitorStream) Late() uint64 { return s.eng.Late() }

// Pending returns the number of record-to-window assignments buffered in
// open windows.
func (s *MonitorStream) Pending() int { return s.eng.Pending() }

// Watermark returns the session's current event-time watermark.
func (s *MonitorStream) Watermark() time.Time { return s.eng.Watermark() }
