// Command perfbench is the repository benchmark. It runs one named
// workload through the public entry points of the simulator
// (density.Generate + sched.Run), the YARN emulation (workload.Facebook +
// yarn.Run) or the cluster daemon (clusterd.Start + Client over loopback
// TCP), checks the outputs, and prints every metric by name with its unit.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the run also takes a CPU profile,
// reads the counters the layers publish, and reports per-layer metrics
// instead. BENCHMARK.json at the repository root names both metric sets.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed whose simulator digests are recorded in
// digests.json.
const defaultSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"tasks_per_s", "1/s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run, reported on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.cpu_share", "ratio"},
	{"sim.events_per_s", "1/s"},
	{"sim.events_per_decision", "ratio"},
	{"sched.cpu_share", "ratio"},
	{"sched.queue.cpu_share", "ratio"},
	{"sched.peak_queued", "count"},
	{"sched.index.cpu_share", "ratio"},
	{"sched.victim.cpu_share", "ratio"},
	{"sched.allocs_per_decision", "count"},
	{"sched.bytes_per_decision", "B"},
	{"core.cpu_share", "ratio"},
	{"sched.preemptions", "count"},
	{"sched.kills", "count"},
	{"sched.checkpoints", "count"},
	{"sched.restores", "count"},
	{"yarn.cpu_share", "ratio"},
	{"yarn.rm.cpu_share", "ratio"},
	{"yarn.preemptions", "count"},
	{"yarn.kills", "count"},
	{"yarn.checkpoints", "count"},
	{"yarn.allocs_per_task", "count"},
	{"proc.cpu_share", "ratio"},
	{"checkpoint.cpu_share", "ratio"},
	{"checkpoint.dump_mb_per_s", "MB/s"},
	{"checkpoint.restore_mb_per_s", "MB/s"},
	{"checkpoint.dumps", "count"},
	{"dfs.cpu_share", "ratio"},
	{"dfs.block_write_p50_ms", "ms"},
	{"dfs.block_read_p50_ms", "ms"},
	{"dfs.bytes_written", "B"},
	{"dfs.client.retries", "count"},
	{"clusterd.cpu_share", "ratio"},
	{"clusterd.submit_p50_ms", "ms"},
	{"clusterd.submit_p90_ms", "ms"},
	{"clusterd.submit_p99_ms", "ms"},
	{"clusterd.submit_samples", "count"},
	{"clusterd.submit_rtt_p50_us", "us"},
	{"clusterd.admission_p99_us", "us"},
	{"clusterd.retry_after_rejections", "count"},
	{"clusterd.queue_depth_peak", "count"},
	{"clusterd.saturated_jobs_per_s", "1/s"},
	{"obs.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"gc.cycles", "count"},
	{"alloc_mb", "MiB"},
	{"gen.cpu_share", "ratio"},
	{"gen.achieved_rate_ratio", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"unattributed.cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.profile_samples", "count"},
}

// workloadDef is one named workload; BENCHMARK.json and README.md say why
// each exists.
type workloadDef struct {
	Name string
	Run  func(r *run) error
}

var workloads = []workloadDef{
	{"sim-deep-queue", runDeepQueue},
	{"sim-adaptive", runAdaptive},
	{"yarn-paper", runYarnPaper},
	{"clusterd-mixed", runClusterdMixed},
}

// run is the state of one benchmark invocation.
type run struct {
	seed   int64
	budget time.Duration
	traced bool

	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	// extra holds workload-specific figures printed for reading but not
	// part of the JSON result (their names are not in BENCHMARK.json).
	extra []metricValue

	spans *spanLog
	prof  *cpuProfile
}

type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) note(name string, v float64, unit string) {
	r.extra = append(r.extra, metricValue{name, v, unit})
}

// fail records one failed operation and marks the run incorrect.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", defaultSeed, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured region in seconds")
	trace := flag.Int("trace", 0, "1 takes the traced run and reports per-layer metrics")
	outDir := flag.String("out", "", "directory for result sets and span files (none written when empty)")
	flag.Parse()

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	r := &run{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		correct: true,
		values:  map[string]float64{},
		spans:   newSpanLog(),
	}
	if r.traced {
		r.prof = &cpuProfile{layers: map[string]int64{}}
	}
	host := hostFacts(*seed)
	fmt.Printf("host %s\n", mustJSON(host))
	if err := wl.Run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.Name, err)
		return 1
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", wl.Name)
		return 1
	}

	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if (!ok && !r.traced) || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", wl.Name, d.Name)
			return 1
		}
		res.Metrics[d.Name] = jsonMetric{v, d.Unit}
		fmt.Printf("metric %-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, e := range r.extra {
		fmt.Printf("metric %-34s %14.6g %s\n", e.Name, e.Value, e.Unit)
	}
	fmt.Printf("metric %-34s %14.6g %s\n", "fail_ratio", float64(r.failed)/float64(r.attempted), "ratio")

	if *outDir != "" {
		if err := writeResultSet(*outDir, wl.Name, r, host, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Println(mustJSON(res))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data structures are marshalled
	}
	return string(b)
}

// writeResultSet stores the result with its host facts, and in a traced
// run the span log, under dir.
func writeResultSet(dir, workload string, r *run, host hostInfo, res jsonResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if r.traced {
		mode = "trace"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", workload, r.seed, mode))
	set := struct {
		Workload string        `json:"workload"`
		Host     hostInfo      `json:"host"`
		Result   jsonResult    `json:"result"`
		Extra    []metricValue `json:"extra,omitempty"`
	}{workload, host, res, r.extra}
	if err := writeFile(base+".json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(set)
	}); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	return writeFile(base+".spans.json", r.spans.writeChrome)
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
