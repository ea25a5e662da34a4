// Command loadgen drives a running clusterd with a seeded open-loop
// submission stream: Poisson arrivals at -rate submissions/sec for
// -duration, each submission retried with capped jittered backoff and
// honoring the daemon's retry-after backpressure hints. After the offered
// window it waits for the daemon to drain its backlog, then prints (and
// optionally checks) the soak invariants.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7171 [-rate 20] [-duration 30s] [-seed 42]
//	        [-tasks 2] [-task-duration 30s] [-max-outstanding 64]
//	        [-request-timeout 5s] [-settle-timeout 30s] [-report load.json]
//	        [-check] [-p99-budget 250ms] [-max-goroutine-growth 50]
//	        [-max-heap-growth-mb 64]
//
// Arrivals are paced on absolute deadlines, and the report prints the
// schedule's target rate next to the rate actually achieved.
//
// With -check the exit status is the soak verdict: nonzero when any job
// was lost or double-completed, when accepted != completed, when the
// admission p99 exceeds the budget, when the daemon's goroutine/heap
// gauges grew past the allowance, or when the achieved offered rate fell
// below 95% of the target. CI's soak smoke job runs exactly this.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"preemptsched/internal/clusterd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7171", "clusterd wire address")
	rate := flag.Float64("rate", 20, "mean offered load, submissions/sec (Poisson)")
	duration := flag.Duration("duration", 30*time.Second, "offered-load window")
	seed := flag.Int64("seed", 42, "arrival/jitter PRNG seed")
	tasks := flag.Int("tasks", 2, "tasks per offered job")
	taskDuration := flag.Duration("task-duration", 30*time.Second, "virtual duration per task")
	maxOutstanding := flag.Int("max-outstanding", 64, "max concurrent submit RPCs; arrivals past it are shed")
	requestTimeout := flag.Duration("request-timeout", 5*time.Second, "per-request deadline")
	settleTimeout := flag.Duration("settle-timeout", 30*time.Second, "post-load wait for the daemon to finish admitted jobs")
	reportPath := flag.String("report", "", "write the JSON load report here")
	check := flag.Bool("check", false, "enforce the soak invariants; exit nonzero on violation")
	p99Budget := flag.Duration("p99-budget", 250*time.Millisecond, "admission p99 latency budget (with -check)")
	maxGoroutineGrowth := flag.Int("max-goroutine-growth", 50, "allowed daemon goroutine growth baseline->final (with -check)")
	maxHeapGrowthMB := flag.Int("max-heap-growth-mb", 64, "allowed daemon heap growth in MiB (with -check)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := clusterd.RunLoad(ctx, clusterd.LoadConfig{
		Addr:           *addr,
		Rate:           *rate,
		Duration:       *duration,
		Seed:           *seed,
		TasksPerJob:    *tasks,
		TaskDuration:   *taskDuration,
		MaxOutstanding: *maxOutstanding,
		RequestTimeout: *requestTimeout,
		SettleTimeout:  *settleTimeout,
	})
	if err != nil {
		return err
	}

	fmt.Printf("offered %d jobs in %v (%d shed at the client): %d accepted, %d rejected, %d transport errors\n",
		rep.Offered, rep.Elapsed.Round(time.Millisecond), rep.Shed, rep.Accepted, rep.Rejected, rep.TransportErrors)
	fmt.Printf("offered rate: target %.1f jobs/s, achieved %.1f jobs/s\n", rep.TargetRate, rep.AchievedRate)
	fmt.Printf("daemon: %d admitted, %d completed, %d lost, %d double-completed (settled=%v)\n",
		rep.Final.Admitted, rep.Final.Completed, rep.Final.Lost, rep.Final.DoubleCompleted, rep.Settled)
	fmt.Printf("admission p99: %.3fms; goroutines %d -> %d; heap %.1f -> %.1f MiB; virtual clock %v\n",
		rep.Final.AdmissionP99Sec*1000, rep.BaselineGoroutines, rep.FinalGoroutines,
		float64(rep.BaselineHeapBytes)/(1<<20), float64(rep.FinalHeapBytes)/(1<<20),
		time.Duration(rep.Final.VirtualNowNS).Round(time.Second))

	if *reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if err := os.WriteFile(*reportPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report: %s\n", *reportPath)
	}

	if *check {
		if err := rep.Check(*p99Budget, *maxGoroutineGrowth, uint64(*maxHeapGrowthMB)<<20); err != nil {
			return fmt.Errorf("soak check failed: %w", err)
		}
		if rep.AchievedRate < 0.95*rep.TargetRate {
			return fmt.Errorf("soak check failed: achieved %.1f jobs/s, below 95%% of the %.1f jobs/s target", rep.AchievedRate, rep.TargetRate)
		}
		fmt.Println("soak check passed: nothing lost, nothing doubled, latency, growth and offered rate in budget")
	}
	return nil
}
