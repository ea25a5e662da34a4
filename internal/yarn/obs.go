package yarn

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

// nodeName is the span process-track label for a NodeManager.
func nodeName(id int) string { return "node-" + strconv.Itoa(id) }

// yarnHandles carries pre-resolved registry handles for the metrics hit
// on every dump, restore, verdict, or container grant, replacing a
// name-keyed lookup under the registry lock with one atomic slot each.
type yarnHandles struct {
	dumpQueue, dumpWrite, dumpTotal         obs.Histogram
	predumpTotal                            obs.Histogram
	containerWait                           obs.Histogram
	restoreQueue, restoreRead, restoreTotal obs.Histogram
	restoreTransfer, estimateRelerr         obs.Histogram
	restoreLocal, restoreRemote             obs.Counter
	decision                                [int(core.ActionCheckpointIncremental) + 1]obs.Counter
}

// resolveHandles fills hm from the cluster registry; reg is never nil by
// the time this runs (Cluster construction guarantees it).
func (c *Cluster) resolveHandles() {
	c.hm = yarnHandles{
		dumpQueue:       c.reg.Histogram("yarn.dump.queue.seconds"),
		dumpWrite:       c.reg.Histogram("yarn.dump.write.seconds"),
		dumpTotal:       c.reg.Histogram("yarn.dump.total.seconds"),
		predumpTotal:    c.reg.Histogram("yarn.predump.total.seconds"),
		containerWait:   c.reg.Histogram("yarn.container.wait.seconds"),
		restoreQueue:    c.reg.Histogram("yarn.restore.queue.seconds"),
		restoreRead:     c.reg.Histogram("yarn.restore.read.seconds"),
		restoreTotal:    c.reg.Histogram("yarn.restore.total.seconds"),
		restoreTransfer: c.reg.Histogram("yarn.restore.transfer.seconds"),
		estimateRelerr:  c.reg.Histogram("yarn.overhead.estimate.relerr"),
		restoreLocal:    c.reg.Counter("yarn.policy.restore.local"),
		restoreRemote:   c.reg.Counter("yarn.policy.restore.remote"),
	}
	for a := core.ActionKill; a <= core.ActionCheckpointIncremental; a++ {
		//lint:ignore metricname the suffix is a closed PreemptAction enum, one counter per verdict
		c.hm.decision[a] = c.reg.Counter("yarn.policy.decision." + a.String())
	}
}

// recordDecision books one Preemption Manager verdict: a policy-decision
// counter keyed by the chosen action, an instant span on the victim's
// track carrying the unsaved progress and the stashed Algorithm 1
// estimate, the live SLO hit-rate tally, and a provenance record in the
// flight recorder keyed to that span. est is the overhead the verdict
// weighed; the journal records it for kills too, so it can answer "why
// kill instead of checkpoint", while only a checkpoint stashes it for the
// est-vs-actual comparison at restore.
func (c *Cluster) recordDecision(t *taskRun, n *NodeManager, action core.PreemptAction, est time.Duration, now sim.Time) {
	if action.IsCheckpoint() {
		t.estOverhead = est
		t.dumpCost = 0
	}
	c.hm.decision[action].Inc()
	c.slo.CountDecision(action.IsCheckpoint())
	var span obs.SpanID
	if c.tracer != nil {
		span = c.tracer.Instant("sched", "policy-decision", nodeName(n.id), t.spec.ID.String(), 0, time.Duration(now),
			obs.String("action", action.String()),
			obs.DurationMS("unsaved_ms", t.unsavedProgress(now)),
			obs.DurationMS("est_overhead_ms", t.estOverhead))
	}
	if c.rec != nil {
		c.rec.Append(obs.Record{
			Kind: obs.RecDecision, At: time.Duration(now), Source: "yarn",
			Name: action.String(), Task: t.spec.ID.String(), Node: nodeName(n.id),
			Priority: int(t.spec.Priority), Unsaved: t.unsavedProgress(now),
			Est: est, Span: uint64(span),
		})
	}
}

// recordSelection journals one victim-selection pass: the full scored
// candidate set the RM ranked while finding room for claimant, in rank
// order, with the chosen victim (rank entry 0, on node n) marked.
func (c *Cluster) recordSelection(claimant *taskRun, n *NodeManager, cands []*taskRun, rank []core.Ranked, now sim.Time) {
	if c.rec == nil {
		return
	}
	c.rec.Append(obs.Record{
		Kind: obs.RecSelection, At: time.Duration(now), Source: "yarn",
		Name: "victim-selection", Claimant: claimant.spec.ID.String(),
		Node: nodeName(n.id), Priority: int(claimant.spec.Priority),
		Candidates: core.CandidateScores(rank, 1, false, func(i int) (string, time.Duration) {
			return cands[i].spec.ID.String(), cands[i].unsavedProgress(now)
		}),
	})
}

// recordKillFallback journals a checkpoint decision that degraded to a
// kill (failed dump), carrying the progress lost.
func (c *Cluster) recordKillFallback(t *taskRun, n *NodeManager, lost time.Duration, now sim.Time) {
	c.slo.CountFallbackKill()
	if c.rec == nil {
		return
	}
	c.rec.Append(obs.Record{
		Kind: obs.RecEvent, At: time.Duration(now), Source: "yarn",
		Name: "kill-fallback", Task: t.spec.ID.String(), Node: nodeName(n.id),
		Priority: int(t.spec.Priority), Unsaved: lost, Flags: obs.FlagFallback,
	})
}

// recordDump books one checkpoint dump window [now, done] with the device
// queue portion [now, start]: the window's device time added to the
// checkpoint's dump cost, queue/write/total histograms, the per-node
// queue-backlog high-water mark, and a dump span with dump-queue and
// dump-write children.
func (c *Cluster) recordDump(t *taskRun, n *NodeManager, image string, bytes int64, incremental bool, now, start, done sim.Time) {
	t.dumpCost += time.Duration(done - now)
	c.hm.dumpQueue.ObserveDuration(time.Duration(start - now))
	c.hm.dumpWrite.ObserveDuration(time.Duration(done - start))
	c.hm.dumpTotal.ObserveDuration(time.Duration(done - now))
	//lint:ignore metricname per-node gauge: the node id is part of the series identity
	c.reg.MaxGauge(fmt.Sprintf("yarn.node.%d.ckpt.queue.peak.seconds", n.id), time.Duration(start-now).Seconds())
	var span obs.SpanID
	if c.tracer != nil {
		pid, tid := nodeName(n.id), t.spec.ID.String()
		span = c.tracer.Complete("checkpoint", "dump", pid, tid, 0, time.Duration(now), time.Duration(done),
			obs.Int64("bytes", bytes), obs.Bool("incremental", incremental), obs.String("image", image))
		c.tracer.Complete("checkpoint", "dump-queue", pid, tid, span, time.Duration(now), time.Duration(start))
		c.tracer.Complete("checkpoint", "dump-write", pid, tid, span, time.Duration(start), time.Duration(done))
		t.lastCkptSpan = span
	}
	if c.rec != nil {
		flags := uint32(0)
		if incremental {
			flags |= obs.FlagIncremental
		}
		c.rec.Append(obs.Record{
			Kind: obs.RecEvent, At: time.Duration(now), Source: "yarn",
			Name: "dump", Task: t.spec.ID.String(), Node: nodeName(n.id),
			Priority: int(t.spec.Priority), Est: t.estOverhead,
			Actual: time.Duration(done - now), Bytes: bytes,
			Span: uint64(span), Flags: flags,
		})
	}
}

// recordPreDump books the pre-copy write window, during which the victim
// keeps executing; it opens the checkpoint's dump cost.
func (c *Cluster) recordPreDump(t *taskRun, n *NodeManager, image string, bytes int64, now, start, done sim.Time) {
	t.dumpCost = time.Duration(done - now)
	c.hm.predumpTotal.ObserveDuration(time.Duration(done - now))
	var span obs.SpanID
	if c.tracer != nil {
		pid, tid := nodeName(n.id), t.spec.ID.String()
		span = c.tracer.Complete("checkpoint", "pre-dump", pid, tid, 0, time.Duration(now), time.Duration(done),
			obs.Int64("bytes", bytes), obs.String("image", image))
		c.tracer.Complete("checkpoint", "dump-queue", pid, tid, span, time.Duration(now), time.Duration(start))
		c.tracer.Complete("checkpoint", "dump-write", pid, tid, span, time.Duration(start), time.Duration(done))
		t.lastCkptSpan = span
	}
	if c.rec != nil {
		c.rec.Append(obs.Record{
			Kind: obs.RecEvent, At: time.Duration(now), Source: "yarn",
			Name: "pre-dump", Task: t.spec.ID.String(), Node: nodeName(n.id),
			Priority: int(t.spec.Priority), Est: t.estOverhead,
			Actual: time.Duration(done - now), Bytes: bytes,
			Span: uint64(span), Flags: obs.FlagPreCopy,
		})
	}
}

// recordTaskDone journals a task completing its final step, closing its
// timeline in the flight recorder.
func (c *Cluster) recordTaskDone(t *taskRun, n *NodeManager, now sim.Time) {
	if c.rec == nil {
		return
	}
	c.rec.Append(obs.Record{
		Kind: obs.RecEvent, At: time.Duration(now), Source: "yarn",
		Name: "task-done", Task: t.spec.ID.String(), Node: nodeName(n.id),
		Priority: int(t.spec.Priority),
	})
}

// recordContainerWait books the time a granted request spent queued at the
// RM. For checkpointed tasks this is the queue-wait link between dump and
// restore in the span chain, so it is traced even when zero.
func (c *Cluster) recordContainerWait(req *request, n *NodeManager, now sim.Time) {
	wait := time.Duration(now - req.queuedAt)
	c.hm.containerWait.ObserveDuration(wait)
	if c.tracer == nil || (wait <= 0 && !req.task.hasImage) {
		return
	}
	c.tracer.Complete("sched", "queue-wait", nodeName(n.id), req.task.spec.ID.String(),
		req.task.lastCkptSpan, time.Duration(req.queuedAt), time.Duration(now))
}

// recordRestore books one restore window [now, done]: transfer (remote
// only), device queue, read, and total histograms; the local/remote
// Algorithm 2 decision counters; the Algorithm 1 estimated-vs-actual
// relative error once the full checkpoint→restore round trip is known; and
// a restore span with transfer/queue/read children, parented to the dump
// span that produced the image.
func (c *Cluster) recordRestore(t *taskRun, n *NodeManager, remote bool, transfer time.Duration, now, start, done sim.Time) {
	arrive := now + sim.Time(transfer)
	c.hm.restoreQueue.ObserveDuration(time.Duration(start - arrive))
	c.hm.restoreRead.ObserveDuration(time.Duration(done - start))
	c.hm.restoreTotal.ObserveDuration(time.Duration(done - now))
	if remote {
		c.hm.restoreTransfer.ObserveDuration(transfer)
		c.hm.restoreRemote.Inc()
	} else {
		c.hm.restoreLocal.Inc()
	}
	// The full checkpoint round trip is dump + restore; est was captured
	// at decision time and is compared (then cleared) here.
	est := t.estOverhead
	actual := t.dumpCost + time.Duration(done-now)
	if est > 0 {
		if actual > 0 {
			relerr := math.Abs(est.Seconds()-actual.Seconds()) / actual.Seconds()
			c.hm.estimateRelerr.Observe(relerr)
		}
		t.estOverhead = 0
	}
	var span obs.SpanID
	if c.tracer != nil {
		pid, tid := nodeName(n.id), t.spec.ID.String()
		span = c.tracer.Complete("restore", "restore", pid, tid, t.lastCkptSpan,
			time.Duration(now), time.Duration(done), obs.Bool("remote", remote))
		if remote {
			c.tracer.Complete("restore", "restore-transfer", pid, tid, span, time.Duration(now), time.Duration(arrive))
		}
		c.tracer.Complete("restore", "restore-queue", pid, tid, span, time.Duration(arrive), time.Duration(start))
		c.tracer.Complete("restore", "restore-read", pid, tid, span, time.Duration(start), time.Duration(done))
	}
	if c.rec != nil {
		flags := uint32(0)
		if remote {
			flags |= obs.FlagRemote
		}
		if t.failedOver {
			flags |= obs.FlagFailure
		}
		c.rec.Append(obs.Record{
			Kind: obs.RecEvent, At: time.Duration(now), Source: "yarn",
			Name: "restore", Task: t.spec.ID.String(), Node: nodeName(n.id),
			Priority: int(t.spec.Priority), Est: est, Actual: actual,
			Bytes: t.spec.MemFootprint, Span: uint64(span), Flags: flags,
		})
	}
}

// recordNodeDown journals the liveness sweep declaring a node dead. The
// record is node-centric: it has no Task, and Unsaved carries how long
// the node had been silent.
func (c *Cluster) recordNodeDown(n *NodeManager, now sim.Time) {
	if c.tracer != nil {
		c.tracer.Instant("liveness", "node-down", nodeName(n.id), "", 0, time.Duration(now),
			obs.Bool("crashed", n.crashed))
	}
	if c.rec == nil {
		return
	}
	c.rec.Append(obs.Record{
		Kind: obs.RecEvent, At: time.Duration(now), Source: "yarn",
		Name: "node-down", Node: nodeName(n.id),
		Unsaved: time.Duration(now - n.lastBeat), Flags: obs.FlagFailure,
	})
}

// recordNodeRecovered journals a declared-dead node whose heartbeat came
// back (healed partition).
func (c *Cluster) recordNodeRecovered(n *NodeManager, now sim.Time) {
	if c.tracer != nil {
		c.tracer.Instant("liveness", "node-recovered", nodeName(n.id), "", 0, time.Duration(now))
	}
	if c.rec == nil {
		return
	}
	c.rec.Append(obs.Record{
		Kind: obs.RecEvent, At: time.Duration(now), Source: "yarn",
		Name: "node-recovered", Node: nodeName(n.id),
	})
}

// recordTaskRescheduled journals one task fenced off a dead node and
// requeued; Unsaved carries the progress the failure cost it.
func (c *Cluster) recordTaskRescheduled(t *taskRun, n *NodeManager, lost time.Duration, now sim.Time) {
	if c.rec == nil {
		return
	}
	c.rec.Append(obs.Record{
		Kind: obs.RecEvent, At: time.Duration(now), Source: "yarn",
		Name: "task-rescheduled", Task: t.spec.ID.String(), Node: nodeName(n.id),
		Priority: int(t.spec.Priority), Unsaved: lost, Flags: obs.FlagFailure,
	})
}

// finishMetrics mirrors the run's Result counters into the registry in one
// batch, sets the end-of-run gauges, and snapshots everything into
// Result.Metrics. Called whether or not the run completed, so aborted runs
// still carry their telemetry.
func (c *Cluster) finishMetrics() {
	// The quarantine/re-replication pipeline counts at the NameNode and
	// the scrubber counts at the DataNodes; mirror those registry counters
	// into the Result so callers get the integrity story without scraping.
	pre := c.reg.Snapshot()
	c.res.ReplicasQuarantined = pre.Counter("dfs.namenode.replicas.quarantined")
	c.res.CorruptReReplicated = pre.Counter("dfs.namenode.corrupt.rereplicated")
	c.res.CorruptDegraded = pre.Counter("dfs.namenode.corrupt.degraded")
	c.res.CorruptLost = pre.Counter("dfs.namenode.corrupt.lost")
	deltas := map[string]int64{
		"yarn.preemptions":             int64(c.res.Preemptions),
		"yarn.kills":                   int64(c.res.Kills),
		"yarn.checkpoints":             int64(c.res.Checkpoints),
		"yarn.checkpoints.incremental": int64(c.res.IncrementalCheckpoints),
		"yarn.precopies":               int64(c.res.PreCopies),
		"yarn.compactions":             int64(c.res.Compactions),
		"yarn.restores":                int64(c.res.Restores),
		"yarn.restores.remote":         int64(c.res.RemoteRestores),
		"yarn.restore.failures":        int64(c.res.RestoreFailures),
		"yarn.restore.fallbacks":       int64(c.res.RestoreFallbacks),
		"yarn.restore.restarts":        int64(c.res.RestoreRestarts),
		"yarn.restore.verify.failures": int64(c.res.RestoreVerifyFailures),
		"yarn.dump.failures":           int64(c.res.DumpFailures),
		"yarn.fallback.kills":          int64(c.res.FallbackKills),
		"yarn.tasks.completed":         int64(c.res.TasksCompleted),
		"yarn.jobs.completed":          int64(c.res.JobsCompleted),
		"yarn.node.failures":           int64(c.res.NodeFailures),
		"yarn.node.recoveries":         int64(c.res.NodeRecoveries),
		"yarn.tasks.rescheduled":       int64(c.res.TasksRescheduled),
		"yarn.failure.restores":        int64(c.res.FailureRestores),
		"yarn.failure.restarts":        int64(c.res.FailureRestarts),
		"yarn.blocks.rereplicated":     int64(c.res.BlocksReReplicated),
		"yarn.blocks.lost":             int64(c.res.BlocksLost),
	}
	for mode, v := range c.res.FaultsInjected {
		deltas["faults.injected."+mode] = v
	}
	c.reg.AddN(deltas)
	c.reg.SetGauge("yarn.makespan.seconds", c.res.Makespan.Seconds())
	c.reg.SetGauge("yarn.scrub.final.corrupt", float64(c.res.FinalScrubCorrupt))
	c.reg.SetGauge("yarn.peak.image.bytes", float64(c.res.PeakImageBytes))
	c.reg.SetGauge("yarn.dfs.stored.bytes", float64(c.res.DFSStoredBytes))
	c.reg.SetGauge("yarn.energy.kwh", c.res.EnergyKWh)
	c.slo.PublishGauges(c.reg)
	c.res.SLO = c.slo.Snapshot()
	c.res.Metrics = c.reg.Snapshot()
}
