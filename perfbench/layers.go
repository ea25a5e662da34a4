package main

import "strings"

// layerPrefixes maps function-name prefixes, as a CPU profile spells
// them, to the layer that owns the time. A sample belongs to the layer of
// the innermost frame that matches a prefix; when several prefixes match
// one frame the longest wins. Frames that match nothing (the standard
// library, runtime helpers such as mallocgc, shared types) are
// transparent, so their time goes to the nearest listed caller. A sample
// with no listed frame is unattributed.
var layerPrefixes = []struct{ Prefix, Layer string }{
	// Discrete-event engine.
	{"preemptsched/internal/sim.", "sim"},

	// Trace-driven simulator, split the way the scheduling pass is.
	{"preemptsched/internal/sched.", "sched"},
	{"preemptsched/internal/sched.(*pendingQueue)", "sched.queue"},
	{"preemptsched/internal/sched.(*Simulator).popBatch", "sched.queue"},
	{"preemptsched/internal/sched.beforeTask", "sched.queue"},
	{"preemptsched/internal/sched.(*Simulator).trySchedule", "sched.queue"},
	{"preemptsched/internal/sched.(*nodeIndex)", "sched.index"},
	{"preemptsched/internal/sched.newNodeIndex", "sched.index"},
	{"preemptsched/internal/sched.(*Simulator).pickNode", "sched.index"},
	{"preemptsched/internal/sched.(*Simulator).chooseVictims", "sched.victim"},
	{"preemptsched/internal/sched.(*Simulator).preemptableOn", "sched.victim"},
	{"preemptsched/internal/sched.(*Simulator).selectOn", "sched.victim"},
	{"preemptsched/internal/sched.(*Simulator).canPreempt", "sched.victim"},
	{"preemptsched/internal/sched.(*Simulator).candidateFor", "sched.victim"},
	{"preemptsched/internal/core.SelectVictims", "sched.victim"},

	// The paper's cost model: Algorithm 1 and Algorithm 2.
	{"preemptsched/internal/core.CheckpointOverhead", "core"},
	{"preemptsched/internal/core.DecidePreemption", "core"},
	{"preemptsched/internal/core.DecideRestore", "core"},
	{"preemptsched/internal/core.RestoreCosts", "core"},
	{"preemptsched/internal/core.Candidate", "core"},

	// YARN emulation: the ResourceManager, and the rest (AMs, NMs,
	// cluster assembly, the streaming service).
	{"preemptsched/internal/yarn.", "yarn"},
	{"preemptsched/internal/yarn.(*ResourceManager)", "yarn.rm"},
	{"preemptsched/internal/yarn.requestQueue", "yarn.rm"},
	{"preemptsched/internal/yarn.(*requestQueue)", "yarn.rm"},

	// The programs the containers run.
	{"preemptsched/internal/proc.", "proc"},
	{"preemptsched/internal/kmeans.", "proc"},
	{"preemptsched/internal/mapreduce.", "proc"},

	{"preemptsched/internal/checkpoint.", "checkpoint"},
	{"preemptsched/internal/dfs.", "dfs"},

	// The daemon: wire protocol, admission, dispatch. Its client is the
	// benchmark's load generator.
	{"preemptsched/internal/clusterd.", "clusterd"},
	{"preemptsched/internal/clusterd.(*Client)", "gen"},

	// Observation surfaces: registries, recorder, SLO tracker, spans.
	{"preemptsched/internal/obs.", "obs"},

	// The Go runtime's own work: garbage collection (background workers
	// and allocation assists) and goroutine scheduling.
	{"runtime.gcBgMarkWorker", "runtime"},
	{"runtime.gcAssistAlloc", "runtime"},
	{"runtime.bgsweep", "runtime"},
	{"runtime.bgscavenge", "runtime"},
	{"runtime.gcStart", "runtime"},
	{"runtime.schedule", "runtime"},
	{"runtime.findRunnable", "runtime"},

	// The benchmark itself (named main in its binary, by import path in
	// its test binary) and the profiler it runs.
	{"main.", "gen"},
	{"preemptsched/perfbench.", "gen"},
	{"runtime/pprof.", "gen"},
}

// layerOf returns the layer owning a function name, or "" when no prefix
// matches.
func layerOf(fn string) string {
	best, layer := -1, ""
	for _, p := range layerPrefixes {
		if len(p.Prefix) > best && strings.HasPrefix(fn, p.Prefix) {
			best, layer = len(p.Prefix), p.Layer
		}
	}
	return layer
}

// layerOfStack attributes one sample; frames run from the leaf outwards.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return ""
}
