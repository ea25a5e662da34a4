package main

import (
	"fmt"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// yarnJobs is the Facebook-derived mix of one yarn-paper repetition:
// 40 jobs, ~600 k-means tasks submitted over 10 virtual minutes, so the
// production bursts keep preempting a standing low-priority backlog on
// the paper's 8 nodes x 24 containers.
func yarnJobs(seed int64) ([]cluster.JobSpec, error) {
	fc := workload.DefaultFacebookConfig()
	fc.Seed = seed
	fc.Jobs = 40
	fc.TotalTasks = 600
	fc.Span = 10 * time.Minute
	return workload.Facebook(fc)
}

// yarnRep is one yarn-paper repetition.
type yarnRep struct {
	setup     float64
	secs      float64
	res       *yarn.Result
	decisions float64
	peakHeap  float64
	rt        rtStats
}

// yarnSubSeeds is how many job mixes, each from its own sub-seed, one
// run measures.
const yarnSubSeeds = 4

// runYarnPaper measures a fixed set of job mixes the way runSim measures
// cells: cycling until the budget is spent, taking the median of each
// mix's repetitions, and pairing repetitions with traced reruns in a
// traced run.
func runYarnPaper(r *run) error {
	var (
		setups                    []float64
		first                     = make([]*yarnRep, yarnSubSeeds)
		times                     = make([][]float64, yarnSubSeeds)
		plainTimes                = make([][]float64, yarnSubSeeds)
		peaks                     = make([][]float64, yarnSubSeeds)
		refs                      = make([]map[cluster.TaskID]uint64, yarnSubSeeds)
		rt                        rtStats
		tracedTasks               float64
		dumpBytes, dumpSecs       float64
		restoreBytes, restoreSecs float64
		writeLat, readLat         obs.HistSnapshot
		reps                      int
	)
	start := time.Now()
	for i := 0; i < yarnSubSeeds || time.Since(start) < r.budget; i++ {
		j := i % yarnSubSeeds
		sub := subSeed(r.seed, j)
		// A traced run alternates which of the pair goes first, as in
		// runSim.
		var traced *yarnRep
		var err error
		if r.traced && i%2 == 1 {
			r.attempted++
			if traced, err = yarnOnce(r, sub, true); err != nil {
				r.fail("yarn-paper traced rep %d: %v", i, err)
				continue
			}
		}
		r.attempted++
		rep, err := yarnOnce(r, sub, false)
		if err != nil {
			r.fail("yarn-paper rep %d: %v", i, err)
			continue
		}
		if refs[j] == nil {
			if refs[j], err = yarnReference(r, sub); err != nil {
				r.fail("yarn-paper sub-seed %d: reference run: %v", j, err)
				continue
			}
		}
		if !checkChecksums(r, i, rep.res, refs[j]) {
			continue
		}
		if r.traced {
			plainTimes[j] = append(plainTimes[j], rep.secs)
			if traced == nil {
				r.attempted++
				if traced, err = yarnOnce(r, sub, true); err != nil {
					r.fail("yarn-paper traced rep %d: %v", i, err)
					continue
				}
			}
			rep = traced
			if !checkChecksums(r, i, rep.res, refs[j]) {
				continue
			}
			rt = rt.add(rep.rt)
			tracedTasks += float64(rep.res.TasksCompleted)
			m := rep.res.Metrics
			dumpBytes += float64(m.Counter("checkpoint.dump.bytes"))
			dumpSecs += m.Hist("checkpoint.dump.seconds").Sum
			// Restores are the only DFS readers in this workload.
			restoreBytes += float64(m.Counter("dfs.datanode.bytes.read"))
			restoreSecs += m.Hist("checkpoint.restore.seconds").Sum
			writeLat = writeLat.Merge(m.Hist("dfs.client.block.write.seconds"))
			readLat = readLat.Merge(m.Hist("dfs.client.block.read.seconds"))
		}
		reps++
		setups = append(setups, rep.setup)
		if first[j] == nil {
			first[j] = rep
		}
		times[j] = append(times[j], rep.secs)
		peaks[j] = append(peaks[j], rep.peakHeap)
	}
	var decisions, tasks, secs, plainSecs float64
	var peakHeaps []float64
	var res *yarn.Result // the first input's, so a pure speed-up leaves its counts identical
	for j, f := range first {
		if f == nil {
			continue
		}
		if res == nil {
			res = f.res
		}
		decisions += f.decisions
		tasks += float64(f.res.TasksCompleted)
		secs += median(times[j])
		plainSecs += median(plainTimes[j])
		peakHeaps = append(peakHeaps, median(peaks[j]))
	}
	if secs == 0 {
		return nil // every repetition failed; the checks said why
	}
	r.note("repetitions", float64(reps), "count")
	if !r.traced {
		r.set("setup_s", median(setups))
		r.set("decisions_per_s", decisions/secs)
		r.set("tasks_per_s", tasks/secs)
		r.set("peak_heap_mb", median(peakHeaps))
		return nil
	}
	r.prof.publish(r)
	r.set("yarn.preemptions", float64(res.Preemptions))
	r.set("yarn.kills", float64(res.Kills))
	r.set("yarn.checkpoints", float64(res.Checkpoints))
	r.set("yarn.allocs_per_task", float64(rt.allocObj)/tracedTasks)
	r.set("checkpoint.dump_mb_per_s", ratio(dumpBytes/1e6, dumpSecs))
	r.set("checkpoint.restore_mb_per_s", ratio(restoreBytes/1e6, restoreSecs))
	r.set("checkpoint.dumps", float64(res.Metrics.Counter("checkpoint.dumps.full")+res.Metrics.Counter("checkpoint.dumps.incremental")))
	r.set("dfs.block_write_p50_ms", writeLat.Quantile(0.5)*1e3)
	r.set("dfs.block_read_p50_ms", readLat.Quantile(0.5)*1e3)
	r.set("dfs.bytes_written", float64(res.Metrics.Counter("dfs.datanode.bytes.written")))
	r.set("dfs.client.retries", float64(res.DFSRetries))
	publishRuntime(r, rt, reps)
	r.set("trace.overhead_ratio", secs/plainSecs-1)
	r.note("tasks_per_s(traced)", tasks/secs, "1/s")
	return nil
}

// yarnReference runs the same jobs untimed under PolicyWait, which never
// preempts, and returns every task's final-state checksum.
func yarnReference(r *run, seed int64) (map[cluster.TaskID]uint64, error) {
	jobs, err := yarnJobs(seed)
	if err != nil {
		return nil, err
	}
	s := r.spans.begin("yarn.Run.reference", -1)
	ref, err := yarn.Run(yarn.DefaultConfig(core.PolicyWait, storage.SSD), jobs)
	r.spans.end(s)
	if err != nil {
		return nil, err
	}
	return ref.TaskChecksums, nil
}

// checkChecksums compares every task's final state with the reference
// run's: preempted-and-resumed executions must compute exactly what
// undisturbed ones do.
func checkChecksums(r *run, i int, res *yarn.Result, ref map[cluster.TaskID]uint64) bool {
	if len(res.TaskChecksums) != len(ref) {
		r.fail("yarn-paper rep %d: %d task checksums, reference has %d", i, len(res.TaskChecksums), len(ref))
		return false
	}
	for id, want := range ref {
		if got, ok := res.TaskChecksums[id]; !ok || got != want {
			r.fail("yarn-paper rep %d: task %v checksum %x, reference %x", i, id, got, want)
			return false
		}
	}
	return true
}

// yarnOnce generates one job mix, assembles an empty cluster, and runs
// the adaptive policy on the paper's cluster shape.
func yarnOnce(r *run, seed int64, traced bool) (*yarnRep, error) {
	cfg := yarn.DefaultConfig(core.PolicyAdaptive, storage.SSD)
	setup := r.spans.begin("setup", -1)
	g := r.spans.begin("workload.Facebook", setup)
	jobs, err := yarnJobs(seed)
	r.spans.end(g)
	if err != nil {
		return nil, err
	}
	a := r.spans.begin("yarn.Run.assemble", setup)
	_, err = yarn.Run(cfg, nil)
	r.spans.end(a)
	if err != nil {
		return nil, err
	}
	rep := &yarnRep{setup: r.spans.end(setup).Seconds()}

	heap := startHeapSampler()
	before := readRT()
	if traced {
		if err := r.prof.start(); err != nil {
			heap.finish()
			return nil, err
		}
	}
	s := r.spans.begin("yarn.Run", -1)
	res, err := yarn.Run(cfg, jobs)
	rep.secs = r.spans.end(s).Seconds()
	if traced {
		if perr := r.prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	rep.rt = readRT().sub(before)
	rep.peakHeap = heap.finish()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, j := range jobs {
		total += len(j.Tasks)
	}
	if res.TasksCompleted != total {
		return nil, fmt.Errorf("%d tasks completed of %d", res.TasksCompleted, total)
	}
	rep.res = res
	// A decision is a container grant or a preemption verdict, as in the
	// simulator's Result.Decisions.
	rep.decisions = float64(res.Metrics.Hist("yarn.container.wait.seconds").Count) + float64(res.Preemptions)
	return rep, nil
}
