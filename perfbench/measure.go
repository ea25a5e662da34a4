package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// hostInfo is stored with every result set: a number without its host is
// not comparable.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func hostFacts(seed int64) hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A build inside a git work tree stamps the revision; a plain source
	// checkout has none and keeps "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string
	Parent int // index of the parent span, -1 for a root
	Start  time.Time
	End    time.Time
}

// spanLog keeps spans in memory until the run ends. Safe for concurrent
// use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (l *spanLog) begin(name string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Now()})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = now
	return now.Sub(l.spans[i].Start)
}

// writeChrome writes the spans in Chrome trace_event form.
func (l *spanLog) writeChrome(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent_span": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// rtStats is a snapshot of the runtime's own counters.
type rtStats struct {
	gcCPU, busyCPU       float64 // seconds
	gcCycles             uint64
	allocBytes, allocObj uint64
}

var rtSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRT() rtStats {
	s := make([]metrics.Sample, len(rtSampleNames))
	for i, n := range rtSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtStats{
		gcCPU:      f(0),
		busyCPU:    f(1) - f(2),
		gcCycles:   u(3),
		allocBytes: u(4),
		allocObj:   u(5),
	}
}

// sub returns the counters accumulated between o and s.
func (s rtStats) sub(o rtStats) rtStats {
	return rtStats{
		gcCPU:      s.gcCPU - o.gcCPU,
		busyCPU:    s.busyCPU - o.busyCPU,
		gcCycles:   s.gcCycles - o.gcCycles,
		allocBytes: s.allocBytes - o.allocBytes,
		allocObj:   s.allocObj - o.allocObj,
	}
}

func (s rtStats) add(o rtStats) rtStats {
	return rtStats{
		gcCPU:      s.gcCPU + o.gcCPU,
		busyCPU:    s.busyCPU + o.busyCPU,
		gcCycles:   s.gcCycles + o.gcCycles,
		allocBytes: s.allocBytes + o.allocBytes,
		allocObj:   s.allocObj + o.allocObj,
	}
}

// heapSampler samples the in-use heap (garbage included) every 5ms
// between start and finish by polling runtime/metrics, which does not stop
// the world.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// startHeapSampler collects garbage first, so the region starts from the
// live heap alone and the previous region's garbage cannot carry over.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MiB, taken as the
// 95th percentile of the samples: the highest sawtooth tops of the
// collector's cycle without the single tallest spike, which depends on
// where a collection happened to start.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.95) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
