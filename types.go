package llmprism

import (
	"io"

	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

// Public aliases of the library's data types, so downstream users can name
// everything through this package while the implementation lives in
// internal packages.
type (
	// FlowRecord is one collected network flow (ERSPAN-style).
	FlowRecord = flow.Record
	// FlowFrame is the immutable columnar form of one flow window, with
	// interned switch paths and per-pair/per-job index views. Analyze one
	// with Analyzer.AnalyzeFrame.
	FlowFrame = flow.Frame
	// FlowView is a zero-copy subset of a FlowFrame (one job's rows).
	FlowView = flow.View
	// Addr is an opaque NIC/GPU endpoint address.
	Addr = flow.Addr
	// Pair is an unordered endpoint pair.
	Pair = flow.Pair
	// SwitchID identifies a fabric switch.
	SwitchID = flow.SwitchID

	// Topology is the physical fabric model.
	Topology = topology.Topology
	// TopologySpec parameterizes a fabric.
	TopologySpec = topology.Spec
	// NodeID identifies a physical server.
	NodeID = topology.NodeID

	// JobCluster is a recognized training job (phase 1 output).
	JobCluster = jobrec.Cluster
	// JobID is the monitor's stable cross-window job identity.
	JobID = jobrec.JobID
	// PairType is an inferred communication type (phase 2 output).
	PairType = parallel.Type
	// Timeline is a reconstructed per-rank schedule (phase 3 output).
	Timeline = timeline.Timeline
	// TimelineStep is one reconstructed training step.
	TimelineStep = timeline.Step
	// Alert is a diagnosis finding (phase 4 output).
	Alert = diagnose.Alert
	// AlertKind classifies alerts.
	AlertKind = diagnose.AlertKind
	// SwitchPoint is one bucket of a per-switch DP bandwidth series.
	SwitchPoint = diagnose.SwitchPoint
	// Incident is the monitor's cross-window continuity view of one
	// anomaly (first-seen / still-firing).
	Incident = diagnose.Incident
	// IncidentKey identifies one logical anomaly across windows.
	IncidentKey = diagnose.IncidentKey
	// Suspect is one ranked root-cause candidate of a window's alerts
	// (Report.Suspects, produced WithLocalization).
	Suspect = localize.Suspect
	// SuspectComponent identifies the fabric element a suspect names:
	// a switch, an inter-switch link or a host NIC.
	SuspectComponent = localize.Component
	// SuspectComponentKind classifies suspect components.
	SuspectComponentKind = localize.ComponentKind

	// TraceArchive reads a binary trace archive recorded with
	// WithArchive. Open with OpenTraceArchive.
	TraceArchive = archive.Reader
	// TraceArchiveSegment locates one archived window.
	TraceArchiveSegment = archive.Segment
)

// Re-exported enum values.
const (
	TypePP = parallel.TypePP
	TypeDP = parallel.TypeDP

	AlertCrossStep       = diagnose.AlertCrossStep
	AlertCrossGroup      = diagnose.AlertCrossGroup
	AlertSwitchBandwidth = diagnose.AlertSwitchBandwidth

	ComponentSwitch = localize.ComponentSwitch
	ComponentLink   = localize.ComponentLink
	ComponentHost   = localize.ComponentHost
)

// NewTopology builds a fabric from a spec.
func NewTopology(spec TopologySpec) (*Topology, error) { return topology.New(spec) }

// OpenTraceArchive opens a binary trace archive recorded by a Monitor
// Stream session with WithArchive. r must cover the whole archive (size
// bytes); segments come back in event-time order, ready to replay through
// a fresh monitor session anchored at the archive's recorded grid origin
// (WithAnchor + TraceArchive.Anchor).
func OpenTraceArchive(r io.ReaderAt, size int64) (*TraceArchive, error) {
	return archive.OpenReader(r, size)
}
