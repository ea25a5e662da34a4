package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sched"
	"preemptsched/internal/sched/density"
	"preemptsched/internal/storage"
)

// simCell is the shape of one density cell; the seed fills in the rest.
type simCell struct {
	nodes, tasks int
	policy       core.Policy
	// subSeeds is how many cells, each from its own sub-seed, one run
	// measures.
	subSeeds int
}

var (
	// The pending queue peaks in the tens of thousands, and the
	// occupancy mask rejects most victim scans early.
	deepQueueCell = simCell{nodes: 1_000, tasks: 50_000, policy: core.PolicyCheckpoint, subSeeds: 4}
	// Both Alg. 1 verdicts occur, and victim selection allocates on
	// every decision.
	adaptiveCell = simCell{nodes: 50, tasks: 5_000, policy: core.PolicyAdaptive, subSeeds: 40}
)

// nodeCapacity is the density suite's default machine.
var nodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(16), MemBytes: cluster.GiB(64)}

// sampleEvery is the density suite's default virtual-clock sampling period.
const sampleEvery = 30 * time.Second

//go:embed digests.json
var digestsJSON []byte

// recordedDigests holds, per simulator workload, the cell digest of each
// sub-seed of the default seed.
func recordedDigests() (map[string][]string, error) {
	var d map[string][]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func runDeepQueue(r *run) error { return runSim(r, "sim-deep-queue", deepQueueCell) }
func runAdaptive(r *run) error  { return runSim(r, "sim-adaptive", adaptiveCell) }

// simRep is one repetition: a density cell generated from one sub-seed.
type simRep struct {
	setup    float64 // seconds: generation plus cluster assembly
	secs     float64 // seconds in sched.Run
	res      *sched.Result
	cell     *density.CellResult
	digest   string
	peakHeap float64 // MiB
	rt       rtStats
}

// runSim measures a fixed set of density cells, one per sub-seed of the
// run's seed, cycling through them until the budget is spent and each ran
// at least once. A cell's time is the median of its repetitions. A traced
// run pairs every repetition with a traced rerun of the same cell, so
// tracing overhead is measured on identical work.
func runSim(r *run, name string, cell simCell) error {
	recorded, err := recordedDigests()
	if err != nil {
		return err
	}
	var (
		setups          []float64
		first           = make([]*simRep, cell.subSeeds)
		times           = make([][]float64, cell.subSeeds)
		plainTimes      = make([][]float64, cell.subSeeds)
		peaks           = make([][]float64, cell.subSeeds)
		digests         = make([]string, cell.subSeeds)
		tracedDecisions float64
		rt              rtStats
		reps            int
	)
	start := time.Now()
	for i := 0; i < cell.subSeeds || time.Since(start) < r.budget; i++ {
		j := i % cell.subSeeds
		sub := subSeed(r.seed, j)
		// A traced run alternates which of the pair goes first, so
		// neither side gains from following the other.
		var traced *simRep
		if r.traced && i%2 == 1 {
			r.attempted++
			if traced, err = simOnce(r, name, cell, sub, true); err != nil {
				r.fail("%s traced rep %d: %v", name, i, err)
				continue
			}
		}
		r.attempted++
		rep, err := simOnce(r, name, cell, sub, false)
		if err != nil {
			r.fail("%s rep %d: %v", name, i, err)
			continue
		}
		if !checkSimRep(r, name, i, rep) {
			continue
		}
		switch {
		case digests[j] == "":
			digests[j] = rep.digest
			fmt.Printf("digest %s sub_seed=%d %s\n", name, sub, rep.digest)
			if r.seed == defaultSeed && j < len(recorded[name]) && rep.digest != recorded[name][j] {
				r.fail("%s sub-seed %d: digest %s, recorded %s", name, j, rep.digest, recorded[name][j])
				continue
			}
		case rep.digest != digests[j]:
			r.fail("%s sub-seed %d: digest %s, earlier repetition %s", name, j, rep.digest, digests[j])
			continue
		}
		if r.traced {
			plainTimes[j] = append(plainTimes[j], rep.secs)
			if traced == nil {
				r.attempted++
				if traced, err = simOnce(r, name, cell, sub, true); err != nil {
					r.fail("%s traced rep %d: %v", name, i, err)
					continue
				}
			}
			if traced.digest != rep.digest {
				r.fail("%s rep %d: traced digest %s differs from untraced %s", name, i, traced.digest, rep.digest)
				continue
			}
			rep = traced
			rt = rt.add(rep.rt)
			tracedDecisions += float64(rep.res.Decisions)
		}
		reps++
		setups = append(setups, rep.setup)
		if first[j] == nil {
			first[j] = rep
		}
		times[j] = append(times[j], rep.secs)
		peaks[j] = append(peaks[j], rep.peakHeap)
	}
	var decisions, tasks, events, secs, plainSecs float64
	var peakHeaps []float64
	var counts *sched.Result // the first input's, so a pure speed-up leaves them identical
	peakQueued := 0
	for j, f := range first {
		if f == nil {
			continue
		}
		if counts == nil {
			counts = f.res
		}
		decisions += float64(f.res.Decisions)
		tasks += float64(f.res.TasksCompleted)
		events += float64(f.res.EventsFired)
		secs += median(times[j])
		plainSecs += median(plainTimes[j])
		peakHeaps = append(peakHeaps, median(peaks[j]))
		if f.cell.PeakQueued > peakQueued {
			peakQueued = f.cell.PeakQueued
		}
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
	r.set("sim.events_per_s", events/secs)
	r.set("sim.events_per_decision", events/decisions)
	r.set("sched.peak_queued", float64(peakQueued))
	r.set("sched.allocs_per_decision", float64(rt.allocObj)/tracedDecisions)
	r.set("sched.bytes_per_decision", float64(rt.allocBytes)/tracedDecisions)
	r.set("sched.preemptions", float64(counts.Preemptions))
	r.set("sched.kills", float64(counts.Kills))
	r.set("sched.checkpoints", float64(counts.Checkpoints))
	r.set("sched.restores", float64(counts.Restores))
	publishRuntime(r, rt, reps)
	r.set("trace.overhead_ratio", secs/plainSecs-1)
	r.note("decisions_per_s(traced)", decisions/secs, "1/s")
	return nil
}

// checkSimRep applies the simulator correctness checks to one repetition.
func checkSimRep(r *run, name string, i int, rep *simRep) bool {
	if rep.res.TasksCompleted != rep.cell.Tasks {
		r.fail("%s rep %d: %d tasks completed of %d generated", name, i, rep.res.TasksCompleted, rep.cell.Tasks)
		return false
	}
	if rep.res.Kills+rep.res.Checkpoints != rep.res.Preemptions {
		r.fail("%s rep %d: kills %d + checkpoints %d != preemptions %d", name, i,
			rep.res.Kills, rep.res.Checkpoints, rep.res.Preemptions)
		return false
	}
	return true
}

// simOnce generates one cell, assembles an empty cluster of its shape,
// and runs the simulator on it.
func simOnce(r *run, name string, cell simCell, seed int64, traced bool) (*simRep, error) {
	sp := density.Spec{Name: name, Seed: seed, Nodes: cell.nodes, Tasks: cell.tasks, Policy: cell.policy, Storage: storage.SSD}
	cfg := sched.DefaultConfig(cell.policy, storage.SSD)
	cfg.Nodes = cell.nodes
	cfg.NodeCapacity = nodeCapacity

	setup := r.spans.begin("setup", -1)
	g := r.spans.begin("density.Generate", setup)
	jobs, err := density.Generate(sp)
	r.spans.end(g)
	if err != nil {
		return nil, err
	}
	a := r.spans.begin("sched.Run.assemble", setup)
	_, err = sched.Run(cfg, nil)
	r.spans.end(a)
	if err != nil {
		return nil, err
	}
	rep := &simRep{setup: r.spans.end(setup).Seconds()}

	// The probe and sampler are part of the density cell: they give the
	// in-flight and queue peaks its stable rendering carries.
	cr := &density.CellResult{Name: name, Seed: seed, Nodes: cell.nodes, Jobs: len(jobs)}
	for _, j := range jobs {
		cr.Tasks += len(j.Tasks)
	}
	inFlight := 0
	cfg.Probe = func(ev sched.ProbeEvent) {
		switch ev.Kind {
		case sched.ProbePlace:
			inFlight++
			if inFlight > cr.PeakInFlight {
				cr.PeakInFlight = inFlight
			}
		case sched.ProbeFinish, sched.ProbeKill, sched.ProbeVacate, sched.ProbeFence:
			inFlight--
		}
	}
	cfg.SampleEvery = sampleEvery
	cfg.OnSample = func(s sched.Sample) {
		if s.Queued > cr.PeakQueued {
			cr.PeakQueued = s.Queued
		}
	}
	heap := startHeapSampler()
	before := readRT()
	if traced {
		if err := r.prof.start(); err != nil {
			heap.finish()
			return nil, err
		}
	}
	s := r.spans.begin("sched.Run", -1)
	res, err := sched.Run(cfg, jobs)
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
	rep.res = res
	cr.Makespan = res.Makespan
	cr.Decisions = res.Decisions
	cr.EventsFired = res.EventsFired
	cr.Completed = res.TasksCompleted
	cr.Preemptions = res.Preemptions
	cr.Kills = res.Kills
	cr.Checkpoints = res.Checkpoints
	cr.Restores = res.Restores
	rep.cell = cr
	var buf bytes.Buffer
	density.Render(&buf, []*density.CellResult{cr}, false)
	sum := sha256.Sum256(buf.Bytes())
	rep.digest = hex.EncodeToString(sum[:8])
	return rep, nil
}

// publishRuntime sets the runtime layer's metrics for reps measured
// repetitions.
func publishRuntime(r *run, rt rtStats, reps int) {
	r.set("gc.cpu_share", ratio(rt.gcCPU, rt.busyCPU))
	r.set("gc.cycles", float64(rt.gcCycles)/float64(reps))
	r.set("alloc_mb", float64(rt.allocBytes)/(1<<20)/float64(reps))
}

// subSeed derives the seed of repetition i from the run's seed
// (splitmix64), so every repetition is a different input and the same
// seed always yields the same sequence.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
