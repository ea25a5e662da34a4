package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/clusterd"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
	"preemptsched/internal/yarn"
)

const (
	// openLoopRate is phase 1's offered load in jobs/s, about half the
	// daemon's saturated rate on a 2-core host.
	openLoopRate = 300.0
	// clients is the number of client connections (one per core).
	clients = 2
	// setupRounds is how many daemons are started to time set-up.
	setupRounds   = 9
	settleTimeout = 60 * time.Second
)

// clusterdConfig is the daemon under test: 3 nodes x 4 slots, adaptive
// policy, SSD devices, and the real TCP DFS the service assembles.
func clusterdConfig(reg *obs.Registry) clusterd.Config {
	yc := yarn.DefaultConfig(core.PolicyAdaptive, storage.SSD)
	yc.Nodes = 3
	yc.ContainersPerNode = 4
	return clusterd.Config{Addr: "127.0.0.1:0", Cluster: yc, Metrics: reg}
}

// jobFor draws one job: 2 tasks of 30 virtual seconds at a priority
// uniform over the paper's 0..11.
func jobFor(rng *rand.Rand) clusterd.JobRequest {
	return clusterd.JobRequest{
		Priority:   rng.Intn(int(cluster.MaxPriority) + 1),
		Tasks:      2,
		DurationMS: (30 * time.Second).Milliseconds(),
		User:       "perfbench",
	}
}

func newClient(addr string, seed int64) *clusterd.Client {
	// A generous attempt budget: at saturation the queue is full for
	// whole retry-after periods, and a closed-loop client must outlast
	// them rather than count a refusal.
	return clusterd.NewClient(addr,
		clusterd.WithClientSeed(seed),
		clusterd.WithClientRetry(50, core.Backoff{Base: 20 * time.Millisecond, Cap: time.Second}))
}

// daemonUnderTest is the running daemon with the counters the benchmark
// reads from outside.
type daemonUnderTest struct {
	d   *clusterd.Daemon
	reg *obs.Registry
	cli *clusterd.Client // for Stats

	accepted int64

	depthMu   sync.Mutex
	depthPeak float64
	depthStop chan struct{}
	depthDone chan struct{}
}

// startDaemon boots a daemon and waits until it answers; the returned
// duration is the set-up time.
func startDaemon(r *run, seed int64) (*daemonUnderTest, time.Duration, error) {
	reg := obs.NewRegistry()
	s := r.spans.begin("setup", -1)
	st := r.spans.begin("clusterd.Start", s)
	d, err := clusterd.Start(clusterdConfig(reg))
	r.spans.end(st)
	if err != nil {
		r.spans.end(s)
		return nil, 0, err
	}
	cli := newClient(d.Addr(), seed)
	p := r.spans.begin("Client.Ping", s)
	_, err = cli.Ping(context.Background())
	r.spans.end(p)
	took := r.spans.end(s)
	if err != nil {
		cli.Close()
		d.Shutdown(context.Background())
		return nil, 0, err
	}
	return &daemonUnderTest{d: d, reg: reg, cli: cli}, took, nil
}

// shutdown drains the daemon and returns its final books.
func (t *daemonUnderTest) shutdown(r *run) (clusterd.Stats, error) {
	t.stopDepth()
	t.cli.Close()
	s := r.spans.begin("Daemon.Shutdown", -1)
	ctx, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	err := t.d.Shutdown(ctx)
	r.spans.end(s)
	return t.d.Stats(), err
}

// watchDepth samples the admission queue depth gauge until stopDepth.
func (t *daemonUnderTest) watchDepth() {
	t.depthStop, t.depthDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.depthDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.depthStop:
				return
			case <-tick.C:
				v := t.reg.Snapshot().Gauges["clusterd.queue.depth"]
				t.depthMu.Lock()
				if v > t.depthPeak {
					t.depthPeak = v
				}
				t.depthMu.Unlock()
			}
		}
	}()
}

// stopDepth stops the depth watcher, if one runs, and returns the peak.
// Safe to call more than once.
func (t *daemonUnderTest) stopDepth() float64 {
	if t.depthStop != nil {
		close(t.depthStop)
		<-t.depthDone
		t.depthStop = nil
	}
	t.depthMu.Lock()
	defer t.depthMu.Unlock()
	return t.depthPeak
}

// settle waits until every admitted job has completed and returns the
// daemon's books at that moment.
func (t *daemonUnderTest) settle(r *run) (*clusterd.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	for {
		s := r.spans.begin("Client.Stats", -1)
		st, err := t.cli.Stats(ctx)
		r.spans.end(s)
		if err != nil {
			return nil, fmt.Errorf("settle: %w", err)
		}
		if st.Completed+st.Lost+st.DoubleCompleted >= st.Admitted && st.QueueDepth == 0 && st.InFlight == 0 {
			return st, nil
		}
		if err := core.Sleep(ctx, 5*time.Millisecond); err != nil {
			return nil, fmt.Errorf("settle: %d admitted, %d completed: %w", st.Admitted, st.Completed, err)
		}
	}
}

// decisions is the daemon's count of container grants plus preemption
// verdicts so far.
func (t *daemonUnderTest) decisions() float64 {
	snap := t.reg.Snapshot()
	n := float64(snap.Hist("yarn.container.wait.seconds").Count)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "yarn.policy.decision.") {
			n += float64(v)
		}
	}
	return n
}

// openLoopResult is phase 1's view from the client side.
type openLoopResult struct {
	latency  []float64 // seconds from due time to admitted reply
	rtt      []float64 // seconds inside Client.Submit
	late     []float64 // seconds from due time to the call
	achieved float64   // achieved over scheduled arrival rate
}

// openLoop offers Poisson arrivals at rate for window, each sent at its
// absolute due time (timer overshoot never accumulates) by whichever of
// the clients is free. Given the arrival count, Poisson arrival times are
// uniform order statistics, so the count is fixed by rate x window and
// the seed only places them.
func openLoop(r *run, t *daemonUnderTest, seed int64, window time.Duration) openLoopResult {
	rng := rand.New(rand.NewSource(seed))
	n := int(openLoopRate * window.Seconds())
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	jobs := make([]clusterd.JobRequest, n)
	for i := range jobs {
		jobs[i] = jobFor(rng)
	}

	res := openLoopResult{latency: make([]float64, n), rtt: make([]float64, n), late: make([]float64, n)}
	ok := make([]bool, n)
	t0 := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return t0.Add(offsets[i]) }
	// Sized to every arrival, so the generator never blocks on a slow
	// client: an open loop does not wait for replies.
	ready := make(chan int, n)
	var lastCall time.Time
	var lastMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli := newClient(t.d.Addr(), seed+int64(c)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cli.Close()
			for i := range ready {
				call := time.Now()
				s := r.spans.begin("Client.Submit", -1)
				resp, err := cli.Submit(context.Background(), jobs[i])
				r.spans.end(s)
				done := time.Now()
				res.late[i] = call.Sub(due(i)).Seconds()
				res.latency[i] = done.Sub(due(i)).Seconds()
				res.rtt[i] = done.Sub(call).Seconds()
				ok[i] = err == nil && resp != nil && resp.OK
				lastMu.Lock()
				if call.After(lastCall) {
					lastCall = call
				}
				lastMu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		ready <- i
	}
	close(ready)
	wg.Wait()

	for i := range ok {
		r.attempted++
		if ok[i] {
			t.accepted++
		} else {
			r.fail("open loop: submission %d not admitted", i)
		}
	}
	if n > 0 {
		res.achieved = ratio(offsets[n-1].Seconds(), lastCall.Sub(t0).Seconds())
	}
	return res
}

// closedLoopResult is phase 2's view, from the phase start until the
// daemon settled.
type closedLoopResult struct {
	jobsPerSec, decisionsPerSec float64
	jobs                        float64
	rt                          rtStats
	peakHeap                    float64
}

// closedLoop runs the clients back to back for window: each sends its
// next job once the last is admitted, honouring retry-after. The rates
// count completions from the phase start until the daemon settles.
func closedLoop(r *run, t *daemonUnderTest, seed int64, window time.Duration, traced bool) (closedLoopResult, error) {
	var out closedLoopResult
	base, err := t.settle(r)
	if err != nil {
		return out, err
	}
	dec0 := t.decisions()
	heap := startHeapSampler()
	before := readRT()
	if traced {
		if err := r.prof.start(); err != nil {
			heap.finish()
			return out, err
		}
	}
	start := time.Now()
	end := start.Add(window)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli := newClient(t.d.Addr(), seed+int64(100+c))
		rng := rand.New(rand.NewSource(seed + int64(200+c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cli.Close()
			for time.Now().Before(end) {
				s := r.spans.begin("Client.Submit", -1)
				resp, err := cli.Submit(context.Background(), jobFor(rng))
				r.spans.end(s)
				mu.Lock()
				r.attempted++
				if err == nil && resp != nil && resp.OK {
					t.accepted++
				} else {
					r.fail("closed loop: submission not admitted: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st, err := t.settle(r)
	secs := time.Since(start).Seconds()
	if traced {
		if perr := r.prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	out.rt = readRT().sub(before)
	out.peakHeap = heap.finish()
	if err != nil {
		return out, err
	}
	out.jobs = float64(st.Completed - base.Completed)
	out.jobsPerSec = out.jobs / secs
	out.decisionsPerSec = (t.decisions() - dec0) / secs
	return out, nil
}

func runClusterdMixed(r *run) error {
	var setups []float64
	for i := 0; i < setupRounds-1; i++ {
		t, took, err := startDaemon(r, r.seed)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if _, err := t.shutdown(r); err != nil {
			return err
		}
	}
	t, took, err := startDaemon(r, r.seed)
	if err != nil {
		return err
	}
	setups = append(setups, took.Seconds())

	// Phase 1 takes 40% of the budget, phase 2 the next 40%; settling
	// and the drain take the rest.
	phase := r.budget * 2 / 5
	if r.traced {
		t.watchDepth()
		if err := r.prof.start(); err != nil {
			t.shutdown(r)
			return err
		}
	}
	before := readRT()
	ol := openLoop(r, t, r.seed, phase)
	olRT := readRT().sub(before)
	if r.traced {
		if err := r.prof.stop(); err != nil {
			t.shutdown(r)
			return err
		}
	}
	if ol.achieved < 0.95 {
		r.fail("open loop achieved %.3f of its scheduled rate (< 0.95)", ol.achieved)
	}

	var sat, plain closedLoopResult
	if r.traced {
		// Equal halves, untraced then traced, give the tracing overhead.
		if plain, err = closedLoop(r, t, r.seed, phase/2, false); err == nil {
			sat, err = closedLoop(r, t, r.seed+1, phase/2, true)
		}
	} else {
		sat, err = closedLoop(r, t, r.seed, phase, false)
	}
	if err != nil {
		r.fail("closed loop: %v", err)
	}
	depthPeak := t.stopDepth()
	final, err := t.shutdown(r)
	if err != nil {
		r.fail("shutdown: %v", err)
	}
	if bad := final.Lost + final.DoubleCompleted; bad != 0 {
		r.fail("%d jobs lost, %d double-completed", final.Lost, final.DoubleCompleted)
		r.failed += bad - 1 // each lost or double-completed job is one failure
	}
	if final.Completed != t.accepted || final.Admitted != t.accepted {
		r.fail("accepted %d, admitted %d, completed %d", t.accepted, final.Admitted, final.Completed)
	}

	p50, p90, p99 := quantile(ol.latency, 0.5)*1e3, quantile(ol.latency, 0.9)*1e3, quantile(ol.latency, 0.99)*1e3
	if !r.traced {
		r.set("setup_s", median(setups))
		r.set("decisions_per_s", sat.decisionsPerSec)
		r.set("tasks_per_s", sat.jobsPerSec*2)
		r.set("peak_heap_mb", sat.peakHeap)
		r.note("submit_p50_ms", p50, "ms")
		r.note("submit_p90_ms", p90, "ms")
		r.note("submit_samples", float64(len(ol.latency)), "count")
		r.note("saturated_jobs_per_s", sat.jobsPerSec, "1/s")
		r.note("gen.achieved_rate_ratio", ol.achieved, "ratio")
		r.note("gen.late_p99_ms", quantile(ol.late, 0.99)*1e3, "ms")
		return nil
	}
	r.prof.publish(r)
	r.set("clusterd.submit_p50_ms", p50)
	r.set("clusterd.submit_p90_ms", p90)
	r.set("clusterd.submit_p99_ms", p99)
	r.set("clusterd.submit_samples", float64(len(ol.latency)))
	r.set("clusterd.submit_rtt_p50_us", quantile(ol.rtt, 0.5)*1e6)
	r.set("clusterd.admission_p99_us", final.AdmissionP99Sec*1e6)
	r.set("clusterd.retry_after_rejections", float64(final.Rejected))
	r.set("clusterd.queue_depth_peak", depthPeak)
	r.set("clusterd.saturated_jobs_per_s", sat.jobsPerSec)
	r.set("gen.achieved_rate_ratio", ol.achieved)
	r.set("gen.late_p99_ms", quantile(ol.late, 0.99)*1e3)
	if res := t.d.Result(); res != nil {
		r.set("yarn.preemptions", float64(res.Preemptions))
		r.set("yarn.kills", float64(res.Kills))
		r.set("yarn.checkpoints", float64(res.Checkpoints))
		r.set("dfs.client.retries", float64(res.DFSRetries))
	}
	snap := t.reg.Snapshot()
	r.set("checkpoint.dump_mb_per_s", ratio(float64(snap.Counter("checkpoint.dump.bytes"))/1e6, snap.Hist("checkpoint.dump.seconds").Sum))
	r.set("checkpoint.restore_mb_per_s", ratio(float64(snap.Counter("dfs.datanode.bytes.read"))/1e6, snap.Hist("checkpoint.restore.seconds").Sum))
	r.set("checkpoint.dumps", float64(snap.Counter("checkpoint.dumps.full")+snap.Counter("checkpoint.dumps.incremental")))
	r.set("dfs.block_write_p50_ms", snap.Hist("dfs.client.block.write.seconds").Quantile(0.5)*1e3)
	r.set("dfs.block_read_p50_ms", snap.Hist("dfs.client.block.read.seconds").Quantile(0.5)*1e3)
	r.set("dfs.bytes_written", float64(snap.Counter("dfs.datanode.bytes.written")))
	r.set("yarn.allocs_per_task", ratio(float64(sat.rt.allocObj), sat.jobs*2))
	publishRuntime(r, olRT.add(sat.rt), 2)
	r.set("trace.overhead_ratio", ratio(plain.jobsPerSec, sat.jobsPerSec)-1)
	return nil
}
