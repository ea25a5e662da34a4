package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// cpuShareLayers returns the layers named by <layer>.cpu_share metrics.
func cpuShareLayers(defs []metricDef) []string {
	var layers []string
	for _, d := range defs {
		if l, ok := strings.CutSuffix(d.Name, ".cpu_share"); ok {
			layers = append(layers, l)
		}
	}
	return layers
}

func TestEveryLayerHasAPrefix(t *testing.T) {
	prefixes := map[string]int{}
	for _, p := range layerPrefixes {
		prefixes[p.Layer]++
	}
	for _, l := range cpuShareLayers(loadBenchmarkFile(t).PerLayer) {
		switch l {
		case "unattributed":
			continue // the samples no prefix claims
		case "gc":
			continue // from the runtime's own CPU accounting
		}
		if prefixes[l] == 0 {
			t.Errorf("layer %q in BENCHMARK.json has no function-name prefix", l)
		}
	}
}

func TestEveryPrefixMapsToOneReportedLayer(t *testing.T) {
	reported := map[string]bool{}
	for _, l := range cpuShareLayers(loadBenchmarkFile(t).PerLayer) {
		reported[l] = true
	}
	seen := map[string]string{}
	for _, p := range layerPrefixes {
		if prev, dup := seen[p.Prefix]; dup {
			t.Errorf("prefix %q maps to %q and %q", p.Prefix, prev, p.Layer)
		}
		seen[p.Prefix] = p.Layer
		if !reported[p.Layer] {
			t.Errorf("prefix %q maps to layer %q, which has no cpu_share metric in BENCHMARK.json", p.Prefix, p.Layer)
		}
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := loadBenchmarkFile(t)
	same := func(what string, got, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)

	var inFile, inCode []string
	for _, w := range f.Workloads {
		inFile = append(inFile, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.Name)
	}
	sort.Strings(inFile)
	sort.Strings(inCode)
	if strings.Join(inFile, ",") != strings.Join(inCode, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", inFile, inCode)
	}
}

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// The innermost listed frame wins; runtime helpers are transparent.
		{[]string{"runtime.mallocgc", "preemptsched/internal/sched.(*Simulator).chooseVictims", "preemptsched/internal/sched.(*Simulator).trySchedule"}, "sched.victim"},
		// The longest prefix wins within a frame.
		{[]string{"preemptsched/internal/core.SelectVictims", "preemptsched/internal/sched.(*Simulator).chooseVictims"}, "sched.victim"},
		{[]string{"preemptsched/internal/core.CheckpointOverhead", "preemptsched/internal/core.SelectVictims"}, "core"},
		{[]string{"preemptsched/internal/sched.beforeTask", "preemptsched/internal/sched.(*pendingQueue).pop"}, "sched.queue"},
		{[]string{"preemptsched/internal/sched.Run"}, "sched"},
		{[]string{"preemptsched/internal/yarn.(*ResourceManager).preemptFor"}, "yarn.rm"},
		{[]string{"preemptsched/internal/clusterd.(*Client).Submit"}, "gen"},
		{[]string{"encoding/json.(*Decoder).Decode", "preemptsched/internal/clusterd.(*Daemon).handleConn"}, "clusterd"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read"}, ""},
	}
	for _, c := range cases {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfileAttributesBenchmarkFrames(t *testing.T) {
	p := &cpuProfile{layers: map[string]int64{}}
	if err := p.start(); err != nil {
		t.Skip(err) // another profile is running, e.g. under go test -cpuprofile
	}
	spin(300 * time.Millisecond)
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no samples in a 300ms busy loop")
	}
	if share := p.share("gen"); share < 0.5 {
		t.Errorf("gen share %.2f of %d samples, want most of them in spin", share, p.total)
	}
}
