package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"github.com/llmprism/llmprism/internal/topology"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the contract the harness is checked
// against: metric and workload names exist nowhere else.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// findRoot walks up from the working directory to the module root, so the
// harness works both as `go run ./bench` from the root and under `go test`
// from its own directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("BENCHMARK.json: %s name %q outside [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
	}
	return &s, nil
}

// laneStream is one cluster stream of a lane: trace index and cluster id.
type laneStream struct {
	cluster string
	trace   int
}

// workload is one traffic shape. Every size below is a fixed function of
// the -seconds budget; nothing is scaled from what a run measures.
type workload struct {
	name   string
	fabric topology.Spec
	traces []traceSpec
	// lanes are sent concurrently, one connection at a time each; a lane's
	// streams go one after another.
	lanes [][]laneStream
	flags daemonFlags
	// pace is the open-loop speed-up over event time; 0 means closed loop.
	pace    float64
	perturb perturb
	// horizon is the event time each trace covers for a -seconds budget.
	horizon func(seconds float64) time.Duration
	// verifyFrac is the leading share of each trace an independent offline
	// session re-analyzes for the byte-for-byte report check.
	verifyFrac float64
	// replayPasses, scanPasses and queries size the readback phase.
	replayPasses, scanPasses, queries int
}

func scaled(perSecond, floor time.Duration) func(float64) time.Duration {
	return func(seconds float64) time.Duration {
		h := time.Duration(seconds * float64(perSecond)).Truncate(time.Second)
		if h < floor {
			h = floor
		}
		return h
	}
}

// workloads returns the benchmark's workloads, in BENCHMARK.json order.
// bench/README.md explains why each was chosen.
func workloads() []*workload {
	// Three servers per leaf, as in internal/experiments' localization
	// scenarios: every DP group then crosses the spine layer, so the
	// injected spine degradation is visible to the detectors.
	mixFabric := topology.Spec{Nodes: 32, NodesPerLeaf: 3, Spines: 8}
	mix := traceSpec{name: "mix", jobs: []int{16, 8, 8}, step: 3 * time.Second, spineFault: true, salt: 101}
	production := daemonFlags{
		geo:      geometry{width: 5 * time.Second, lateness: 2 * time.Second},
		localize: true, suppress: true, rotateWindows: 8,
	}
	fleet := production
	fleet.retainSegments = 4

	var fleetLanes [][]laneStream
	for lane := 0; lane < 2; lane++ {
		var streams []laneStream
		for i := 0; i < 18; i++ {
			n := lane*18 + i
			streams = append(streams, laneStream{cluster: fmt.Sprintf("c%02d", n), trace: n % 3})
		}
		fleetLanes = append(fleetLanes, streams)
	}
	small := make([]int, 8)
	for i := range small {
		small[i] = 2
	}

	return []*workload{
		{
			name:   "paced-mix",
			fabric: mixFabric,
			traces: []traceSpec{mix},
			lanes:  [][]laneStream{{{cluster: "mix", trace: 0}}},
			flags:  production,
			pace:   30,
			// 30× event time for the whole budget: 84 five-second windows
			// at -seconds 14.
			horizon:      scaled(30*time.Second, 30*time.Second),
			verifyFrac:   0.2,
			replayPasses: 1, scanPasses: 5, queries: 40,
		},
		{
			name:   "saturate-hop",
			fabric: topology.Spec{Nodes: 16, NodesPerLeaf: 4, Spines: 8},
			traces: []traceSpec{
				{name: "big1", jobs: []int{16}, step: 3 * time.Second, salt: 201},
				{name: "small8", jobs: small, step: 3 * time.Second, salt: 202},
			},
			lanes: [][]laneStream{{{cluster: "big1", trace: 0}}, {{cluster: "small8", trace: 1}}},
			flags: daemonFlags{
				geo:           geometry{width: time.Minute, hop: 30 * time.Second, lateness: 5 * time.Second},
				rotateWindows: 4,
			},
			perturb: perturb{swapProb: 0.2, delayProb: 0.001},
			// The floor keeps three windows closing by watermark: the third
			// cannot dispatch until the first is done (-depth 2), which is
			// what guarantees the poller sees a release before the stream ends.
			horizon:    scaled(22500*time.Millisecond, 100*time.Second),
			verifyFrac: 0.3,
			scanPasses: 3, queries: 20,
		},
		{
			name:   "fleet-small",
			fabric: topology.Spec{Nodes: 8, NodesPerLeaf: 4, Spines: 8},
			traces: []traceSpec{
				{name: "fleet-a", jobs: []int{8}, step: 10 * time.Second, salt: 301},
				{name: "fleet-b", jobs: []int{8}, step: 10 * time.Second, salt: 302},
				{name: "fleet-c", jobs: []int{8}, step: 10 * time.Second, salt: 303},
			},
			lanes:        fleetLanes,
			flags:        fleet,
			horizon:      scaled(37*time.Second, 60*time.Second),
			verifyFrac:   0.25,
			replayPasses: 1, scanPasses: 5, queries: 144,
		},
		{
			name:         "store-readback",
			fabric:       mixFabric,
			traces:       []traceSpec{mix},
			lanes:        [][]laneStream{{{cluster: "mix", trace: 0}}},
			flags:        production,
			horizon:      scaled(30*time.Second, 30*time.Second),
			verifyFrac:   0.2,
			replayPasses: 2, scanPasses: 7, queries: 60,
		},
	}
}
