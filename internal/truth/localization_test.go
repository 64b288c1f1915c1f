package truth

import (
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/netsim"
	"github.com/llmprism/llmprism/internal/topology"
)

func scoreTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Spec{Nodes: 32, NodesPerLeaf: 4, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestFaultComponentMapping(t *testing.T) {
	topo := scoreTopo(t)
	spine := topo.SpineSwitch(1)

	if c, ok := FaultComponent(topo, faults.Fault{Kind: faults.KindSwitchDegrade, Switch: spine}); !ok || c != localize.SwitchComponent(spine) {
		t.Errorf("switch fault component = %v ok=%v", c, ok)
	}
	if c, ok := FaultComponent(topo, faults.Fault{Kind: faults.KindRankSlowdown, Addr: 17}); !ok || c != localize.HostComponent(17) {
		t.Errorf("rank fault component = %v ok=%v", c, ok)
	}
	// A NIC-up link degrade is attributed to the host.
	if c, ok := FaultComponent(topo, faults.Fault{Kind: faults.KindLinkDegrade, Link: netsim.NICUp(9)}); !ok || c != localize.HostComponent(9) {
		t.Errorf("NIC link fault component = %v ok=%v", c, ok)
	}
	// A fabric link degrade is attributed to the canonical leaf<->spine link.
	fabric := netsim.Uplink(topo, 0, 1)
	want := localize.LinkComponent(topo.LeafSwitch(0), spine)
	if c, ok := FaultComponent(topo, faults.Fault{Kind: faults.KindLinkDegrade, Link: fabric}); !ok || c != want {
		t.Errorf("fabric link fault component = %v ok=%v, want %v", c, ok, want)
	}
	if _, ok := FaultComponent(topo, faults.Fault{Kind: faults.KindLinkDegrade, Link: -1}); ok {
		t.Error("invalid link id produced a component")
	}
}

func TestScoreLocalization(t *testing.T) {
	topo := scoreTopo(t)
	epoch := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	spine := topo.SpineSwitch(2)
	sched := faults.Schedule{Faults: []faults.Fault{{
		Kind: faults.KindSwitchDegrade, Switch: spine,
		At: 30 * time.Second, Until: 90 * time.Second, Factor: 0.1,
	}}}

	win := func(fromSec, toSec int, comps ...localize.Component) LocalizedWindow {
		w := LocalizedWindow{
			Start: epoch.Add(time.Duration(fromSec) * time.Second),
			End:   epoch.Add(time.Duration(toSec) * time.Second),
		}
		for i, c := range comps {
			w.Suspects = append(w.Suspects, localize.Suspect{Component: c, Score: float64(len(comps) - i)})
		}
		if len(comps) > 0 {
			w.Alerts = []diagnose.Alert{{Kind: diagnose.AlertSwitchBandwidth, Switch: spine}}
		}
		return w
	}
	windows := []LocalizedWindow{
		win(0, 30), // pre-fault, quiet: not scored
		win(30, 60, localize.SwitchComponent(spine), localize.HostComponent(3)), // top-1 hit
		win(60, 90, localize.HostComponent(3), localize.SwitchComponent(spine)), // top-3 hit only
		win(90, 120, localize.HostComponent(3)),                                 // post-fault: not scored
	}

	s := ScoreLocalization(topo, sched, epoch, windows, 3)
	if s.Windows != 2 || s.FaultWindows != 2 {
		t.Fatalf("scored windows = %d faultWindows = %d, want 2 and 2", s.Windows, s.FaultWindows)
	}
	if s.Top1 != 1 || s.TopK != 2 {
		t.Errorf("top1 = %d topK = %d, want 1 and 2", s.Top1, s.TopK)
	}
	if got := s.Top1Rate(); got != 0.5 {
		t.Errorf("Top1Rate = %v, want 0.5", got)
	}
	if got := s.TopKRate(); got != 1 {
		t.Errorf("TopKRate = %v, want 1", got)
	}
	// 4 suspects examined in scored windows, 2 matching the fault.
	if s.Suspected != 4 || s.TruePositives != 2 {
		t.Errorf("suspected = %d truePositives = %d, want 4 and 2", s.Suspected, s.TruePositives)
	}
	if got := s.Precision(); got != 0.5 {
		t.Errorf("Precision = %v, want 0.5", got)
	}

	// Zero denominators degrade to 0, not NaN.
	empty := ScoreLocalization(topo, sched, epoch, nil, 0)
	if empty.K != 3 || empty.Top1Rate() != 0 || empty.Precision() != 0 {
		t.Errorf("empty score = %+v (rates %v %v)", empty, empty.Top1Rate(), empty.Precision())
	}
}
