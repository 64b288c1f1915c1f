// Online monitoring: a streaming Monitor session consumes the collector's
// flow stream — the paper's continuous deployment mode. Records append
// into per-window columnar builders as they arrive, closed windows analyze
// in a pipeline while newer records keep ingesting, and the job registry
// plus incident tracker carry identity across windows: a GPU that starts
// thermal throttling mid-run shows up as one ongoing incident with a
// first-seen time, not an unrelated alert pile per window. With
// localization enabled, each window also carries a ranked list of suspect
// components — the switch, link or host NIC the alerts point at — with the
// same cross-window continuity, and a fused ranking that accumulates each
// suspect's score across windows, so one persistent root cause rises above
// per-window noise. Chronic suppression completes the incident-centric
// view: anomalies that fire from the session's first windows and never
// resolve are classified chronic — platform steady state, not events —
// and leave the alert surface while their incidents stay visible.
//
// The session also records itself: WithArchive persists every completed
// window's columnar frame into a binary trace archive, and the final step
// reopens that archive and replays it through a fresh monitor — no text
// codec, no re-sorting — verifying the replay reproduces the live reports
// bit for bit, the workflow an operator uses to re-diagnose a production
// incident offline.
//
// The last act kills the session mid-stream and resumes it: a checkpoint
// taken at a window boundary captures the monitor's continuity state —
// window grid position, job registry, incident tracker with its chronic
// classifications, fused suspect scores — and ResumeMonitor restores it
// into a fresh process. The feeder re-pushes every record from
// ResumeFrom on, and the resumed session's reports must match the
// uninterrupted run's bit for bit from that window to the end.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"reflect"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/testbed"
)

func main() {
	topoSpec := llmprism.TopologySpec{Nodes: 16, NodesPerLeaf: 8, Spines: 4}
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 16, TargetStep: 2 * time.Second},
	}, 5)
	if err != nil {
		log.Fatal(err)
	}

	// GPU 3 of server 1 throttles to quarter speed from 1:00 to 1:40.
	topo, err := llmprism.NewTopology(topoSpec)
	if err != nil {
		log.Fatal(err)
	}
	victim := topo.AddrOf(1, 3)
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "online-monitor",
		Topo: topoSpec,
		Jobs: jobs,
		Faults: testbed.FaultSchedule{Faults: []testbed.Fault{{
			Kind:   testbed.FaultRankSlowdown,
			Addr:   victim,
			At:     time.Minute,
			Until:  100 * time.Second,
			Factor: 4,
		}}},
		Horizon: 2 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming %d records; GPU %v throttles 4x during 1:00-1:40\n\n", len(res.Records), victim)

	// 40-second windows put the throttling onset mid-window, so the
	// cross-step detector sees healthy steps first and the slowdown stands
	// out against them. 5 seconds of allowed lateness absorb out-of-order
	// collector exports; two windows may analyze while newer records
	// stream in.
	var trace bytes.Buffer
	monitor, err := llmprism.NewMonitor(
		llmprism.New(llmprism.WithLocalization()),
		res.Topo, 40*time.Second,
		llmprism.WithLateness(5*time.Second),
		llmprism.WithPipelineDepth(2),
		llmprism.WithArchive(&trace),
		llmprism.WithChronicSuppression(),
	)
	if err != nil {
		log.Fatal(err)
	}
	stream, err := monitor.Stream(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	show := func(reports []*llmprism.Report) {
		for _, report := range reports {
			alerts := report.Alerts()
			fmt.Printf("window %d [%s..%s): %d jobs, %d alerts\n",
				report.Window.Seq,
				report.Window.Start.Format(time.TimeOnly),
				report.Window.End.Format(time.TimeOnly),
				len(report.Jobs), len(alerts))
			for _, job := range report.Jobs {
				fmt.Printf("  job %d: %d GPUs\n", job.JobID, len(job.Cluster.Endpoints))
			}
			firing, resolved := 0, 0
			for _, inc := range report.Incidents {
				if inc.StillFiring {
					firing++
				} else {
					resolved++
				}
			}
			if len(report.Incidents) > 0 {
				fmt.Printf("  incidents: %d firing, %d resolved\n", firing, resolved)
			}
			shown := 0
			for _, inc := range report.Incidents {
				if shown == 3 {
					fmt.Printf("    … and %d more\n", len(report.Incidents)-shown)
					break
				}
				shown++
				if inc.StillFiring {
					state := "firing"
					if inc.Chronic {
						state = "chronic, firing"
					}
					fmt.Printf("    %v %s %d windows since %s: %s\n",
						inc.Key.Kind, state, inc.Windows, inc.FirstSeen.Format(time.TimeOnly), inc.Detail)
				} else {
					fmt.Printf("    %v resolved after %d windows\n", inc.Key.Kind, inc.Windows)
				}
			}
			for i, s := range report.Suspects {
				if i == 2 {
					break
				}
				fmt.Printf("    suspect #%d %v: score %.2f, suspect for %d windows\n",
					i+1, s.Component, s.Score, s.Windows)
			}
			for i, s := range report.FusedSuspects {
				if i == 2 {
					break
				}
				fmt.Printf("    fused #%d %v: fused %.2f over %d windows\n",
					i+1, s.Component, s.Fused, s.Windows)
			}
		}
	}

	// Replay the trace in 5-second batches, as a collector would export
	// it. Push never waits for window analysis beyond the pipeline depth;
	// each batch returns whatever reports became ready, in window order.
	const batch = 5 * time.Second
	var live []*llmprism.Report
	for at := time.Duration(0); at < 2*time.Minute; at += batch {
		reports, err := stream.Push(res.Window(at, batch))
		if err != nil {
			log.Fatal(err)
		}
		show(reports)
		live = append(live, reports...)
	}
	reports, err := stream.Close()
	if err != nil {
		log.Fatal(err)
	}
	show(reports)
	live = append(live, reports...)
	fmt.Printf("\nlate drops (record-window assignments): %d\n", stream.Late())

	// The session archived itself window by window; reopen the binary
	// trace and replay it through a fresh monitor on the recorded grid.
	// Offline re-diagnosis must reproduce the live reports exactly.
	ar, err := llmprism.OpenTraceArchive(bytes.NewReader(trace.Bytes()), int64(trace.Len()))
	if err != nil {
		log.Fatal(err)
	}
	// Same analyzer and monitor settings as the live session (localization
	// and suppression included), or the replayed reports could not be
	// bit-identical.
	replayMon, err := llmprism.NewMonitor(
		llmprism.New(llmprism.WithLocalization()),
		res.Topo, ar.Meta().Width,
		llmprism.WithLateness(ar.Meta().Lateness),
		llmprism.WithPipelineDepth(2),
		llmprism.WithAnchor(ar.Anchor()),
		llmprism.WithChronicSuppression(),
	)
	if err != nil {
		log.Fatal(err)
	}
	replay, err := replayMon.Stream(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	var replayed []*llmprism.Report
	if err := ar.Replay(func(_ llmprism.TraceArchiveSegment, f *llmprism.FlowFrame) error {
		reports, err := replay.PushFrame(f)
		replayed = append(replayed, reports...)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if reports, err = replay.Close(); err != nil {
		log.Fatal(err)
	}
	replayed = append(replayed, reports...)
	if !reflect.DeepEqual(live, replayed) {
		log.Fatal("replay diverged from the live session")
	}
	fmt.Printf("archived %d windows (%d bytes); replay reproduced all reports bit-for-bit\n",
		ar.NumSegments(), trace.Len())

	// Kill and resume: replay the trace once more on a finer 15-second
	// grid — eight windows, so reports release while records still stream —
	// checkpoint once two windows are out, and abandon the stream there:
	// the crash. A fresh monitor restores the checkpoint, the feeder
	// re-pushes every record from ResumeFrom on, and the combined reports
	// must match an uninterrupted run of the same session exactly.
	const resumeWindow = 15 * time.Second
	newSession := func() (*llmprism.MonitorStream, error) {
		m, err := llmprism.NewMonitor(
			llmprism.New(llmprism.WithLocalization()),
			res.Topo, resumeWindow,
			llmprism.WithLateness(5*time.Second),
			llmprism.WithPipelineDepth(2),
			llmprism.WithChronicSuppression(),
		)
		if err != nil {
			return nil, err
		}
		return m.Stream(context.Background())
	}

	// The uninterrupted reference on the resume grid.
	ref, err := newSession()
	if err != nil {
		log.Fatal(err)
	}
	var want []*llmprism.Report
	for at := time.Duration(0); at < 2*time.Minute; at += batch {
		reports, err := ref.Push(res.Window(at, batch))
		if err != nil {
			log.Fatal(err)
		}
		want = append(want, reports...)
	}
	if reports, err = ref.Close(); err != nil {
		log.Fatal(err)
	}
	want = append(want, reports...)

	crashed, err := newSession()
	if err != nil {
		log.Fatal(err)
	}
	var checkpoint bytes.Buffer
	var head []*llmprism.Report
	for at := time.Duration(0); at < 2*time.Minute; at += batch {
		reports, err := crashed.Push(res.Window(at, batch))
		if err != nil {
			log.Fatal(err)
		}
		head = append(head, reports...)
		if len(head) >= 2 {
			if err := crashed.Checkpoint(&checkpoint); err != nil {
				log.Fatal(err)
			}
			break // the "crash": the session is never closed
		}
	}
	resumed, err := llmprism.ResumeMonitor(
		llmprism.New(llmprism.WithLocalization()),
		res.Topo, &checkpoint,
		llmprism.WithPipelineDepth(2),
		llmprism.WithChronicSuppression(),
	)
	if err != nil {
		log.Fatal(err)
	}
	from := resumed.ResumeFrom()
	fmt.Printf("\nsession killed after %d windows; resuming from %s\n", len(head), from.Format(time.TimeOnly))
	resumeStream, err := resumed.Stream(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	tail := head
	for at := time.Duration(0); at < 2*time.Minute; at += batch {
		var replayRecs []llmprism.FlowRecord
		for _, rec := range res.Window(at, batch) {
			if !rec.Start.Before(from) {
				replayRecs = append(replayRecs, rec)
			}
		}
		reports, err := resumeStream.Push(replayRecs)
		if err != nil {
			log.Fatal(err)
		}
		tail = append(tail, reports...)
	}
	if reports, err = resumeStream.Close(); err != nil {
		log.Fatal(err)
	}
	tail = append(tail, reports...)
	if !reflect.DeepEqual(want, tail) {
		log.Fatal("resumed session diverged from the uninterrupted run")
	}
	fmt.Printf("resumed session reproduced windows %d..%d bit-for-bit\n",
		len(head), len(tail)-1)
}
