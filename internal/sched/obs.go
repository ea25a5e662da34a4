package sched

import (
	"strconv"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

// This file is the simulator's only observer. Each lifecycle edge in the
// scheduler calls exactly one record* hook, and that hook feeds every sink
// the simulator has: the Sample counters (inFlight, decisions), the
// pre-resolved metric handles, the flight-recorder journal, and the Probe.

func nodeName(id cluster.NodeID) string { return "node-" + strconv.Itoa(int(id)) }

// schedHandles holds pre-resolved metric handles for per-event hot paths,
// so a dump or verdict records through one atomic slot instead of a
// name-keyed map lookup under the registry lock.
type schedHandles struct {
	dumpQueue, dumpWrite, dumpTotal                          obs.Histogram
	restoreQueue, restoreRead, restoreTotal, restoreTransfer obs.Histogram
	predumpQueue, predumpTotal                               obs.Histogram
	restoreLocal, restoreRemote                              obs.Counter
	decision                                                 [int(core.ActionCheckpointIncremental) + 1]obs.Counter
}

// newHandles resolves the simulator's handles from reg. A nil registry
// yields no-op handles, so recording through them costs a pointer test.
func newHandles(reg *obs.Registry) schedHandles {
	hm := schedHandles{
		dumpQueue:       reg.Histogram("sched.dump.queue.seconds"),
		dumpWrite:       reg.Histogram("sched.dump.write.seconds"),
		dumpTotal:       reg.Histogram("sched.dump.total.seconds"),
		restoreQueue:    reg.Histogram("sched.restore.queue.seconds"),
		restoreRead:     reg.Histogram("sched.restore.read.seconds"),
		restoreTotal:    reg.Histogram("sched.restore.total.seconds"),
		restoreTransfer: reg.Histogram("sched.restore.transfer.seconds"),
		predumpQueue:    reg.Histogram("sched.predump.queue.seconds"),
		predumpTotal:    reg.Histogram("sched.predump.total.seconds"),
		restoreLocal:    reg.Counter("sched.policy.restore.local"),
		restoreRemote:   reg.Counter("sched.policy.restore.remote"),
	}
	for a := core.ActionKill; a <= core.ActionCheckpointIncremental; a++ {
		//lint:ignore metricname the suffix is a closed PreemptAction enum, one counter per verdict
		hm.decision[a] = reg.Counter("sched.policy.decision." + a.String())
	}
	return hm
}

// probe dispatches one lifecycle event to the configured Probe.
func (s *Simulator) probe(k ProbeKind, task cluster.TaskID, node cluster.NodeID, now sim.Time) {
	if s.cfg.Probe == nil {
		return
	}
	s.cfg.Probe(ProbeEvent{Kind: k, Task: task, Node: node, At: now})
}

// startSampler arms the periodic sampler. Each firing reports current
// state and re-arms itself only while other events remain, so sampling
// never keeps a finished simulation alive.
func (s *Simulator) startSampler() {
	if s.cfg.SampleEvery <= 0 || s.cfg.OnSample == nil {
		return
	}
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		s.cfg.OnSample(Sample{
			At:        now,
			InFlight:  s.inFlight,
			Queued:    len(s.queue),
			Decisions: s.decisions,
			Events:    s.engine.Fired(),
		})
		if s.engine.Pending() > 0 {
			s.engine.At(now+s.cfg.SampleEvery, tick)
		}
	}
	s.engine.At(s.cfg.SampleEvery, tick)
}

// recordPlace observes t being granted resources on n: one scheduling
// decision, one more task in flight.
func (s *Simulator) recordPlace(t *taskRT, n *node, now sim.Time) {
	s.decisions++
	s.inFlight++
	s.probe(ProbePlace, t.spec.ID, n.id, now)
}

// recordSelection journals the candidate table of the chosen node's
// ranking when claimant t preempts on n: every discipline-eligible running
// task in task-ID order, with its estimated checkpoint cost, the first
// take ranked entries flagged. Adaptive rankings carry their costs; a
// baseline ranking has none, so they are computed here, and only when a
// Recorder is attached.
func (s *Simulator) recordSelection(t *taskRT, n *node, cands []*taskRT, rank []core.Ranked, take int, now sim.Time) {
	if s.rec == nil {
		return
	}
	if !s.costAware() {
		for k, e := range rank {
			rank[k].Cost = core.CheckpointOverhead(s.candidateFor(cands[e.Index], now), n.device, now)
		}
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecSelection,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "victim-selection",
		Claimant: t.spec.ID.String(),
		Node:     nodeName(n.id),
		Priority: int(t.spec.Priority),
		Candidates: core.CandidateScores(rank, take, true, func(i int) (string, time.Duration) {
			return cands[i].spec.ID.String(), cands[i].unsavedProgress(now)
		}),
	})
}

// recordDecision observes one Algorithm 1 verdict for victim v on n. A
// kill releases v at once; a checkpoint keeps it in flight until
// recordVacate. The journal record carries est, the checkpoint-overhead
// estimate the verdict weighed, so a kill can later be explained against
// the checkpoint cost it avoided; est is stashed on v for the
// est-vs-actual comparison at dump and restore time.
func (s *Simulator) recordDecision(v *taskRT, n *node, action core.PreemptAction, est time.Duration, now sim.Time) {
	s.decisions++
	s.hm.decision[action].Inc()
	if action.IsCheckpoint() {
		s.probe(ProbeCheckpoint, v.spec.ID, n.id, now)
	} else {
		s.inFlight--
		s.probe(ProbeKill, v.spec.ID, n.id, now)
	}
	if s.rec == nil {
		return
	}
	v.estOverhead = est
	s.rec.Append(obs.Record{
		Kind:     obs.RecDecision,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     action.String(),
		Task:     v.spec.ID.String(),
		Node:     nodeName(n.id),
		Priority: int(v.spec.Priority),
		Unsaved:  v.unsavedProgress(now),
		Est:      est,
	})
}

// recordDump observes one checkpoint write of v's image: now is the
// enqueue instant, start when the device begins the write, done its
// completion, all virtual time. Flags distinguish incremental layers and
// pre-copy freezes.
func (s *Simulator) recordDump(v *taskRT, bytes int64, flags uint32, now, start, done sim.Time) {
	s.hm.dumpQueue.ObserveDuration(time.Duration(start - now))
	s.hm.dumpWrite.ObserveDuration(time.Duration(done - start))
	s.hm.dumpTotal.ObserveDuration(time.Duration(done - now))
	if s.rec == nil {
		return
	}
	v.dumpCost = time.Duration(done - now)
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "dump",
		Task:     v.spec.ID.String(),
		Node:     nodeName(v.node.id),
		Priority: int(v.spec.Priority),
		Est:      v.estOverhead,
		Actual:   time.Duration(done - now),
		Bytes:    bytes,
		Flags:    flags,
	})
}

// recordPreDump observes the pre-copy write preceding a freeze dump.
func (s *Simulator) recordPreDump(v *taskRT, bytes int64, now, start, done sim.Time) {
	s.hm.predumpQueue.ObserveDuration(time.Duration(start - now))
	s.hm.predumpTotal.ObserveDuration(time.Duration(done - now))
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "pre-dump",
		Task:     v.spec.ID.String(),
		Node:     nodeName(v.node.id),
		Priority: int(v.spec.Priority),
		Actual:   time.Duration(done - now),
		Bytes:    bytes,
		Flags:    obs.FlagPreCopy,
	})
}

// recordVacate observes a checkpointed victim's dump becoming durable and
// its resources returning to n.
func (s *Simulator) recordVacate(v *taskRT, n *node, at sim.Time) {
	s.inFlight--
	s.probe(ProbeVacate, v.spec.ID, n.id, at)
}

// recordRestore observes one image read onto target and counts the
// Algorithm 2 placement outcome. transfer is the network shipping time
// preceding the read when the image is remote. The journal record closes
// the est-vs-actual loop: Actual covers the full checkpoint round trip
// (dump plus restore) that the decision-time estimate predicted.
func (s *Simulator) recordRestore(v *taskRT, target *node, remote bool, transfer time.Duration, now, start, done sim.Time) {
	if remote {
		s.hm.restoreRemote.Inc()
		s.hm.restoreTransfer.ObserveDuration(transfer)
	} else {
		s.hm.restoreLocal.Inc()
	}
	s.hm.restoreQueue.ObserveDuration(time.Duration(start-now) - transfer)
	s.hm.restoreRead.ObserveDuration(time.Duration(done - start))
	s.hm.restoreTotal.ObserveDuration(time.Duration(done - now))
	if s.rec == nil {
		return
	}
	var flags uint32
	if remote {
		flags |= obs.FlagRemote
	}
	if v.failedOver {
		flags |= obs.FlagFailure
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "restore",
		Task:     v.spec.ID.String(),
		Node:     nodeName(target.id),
		Priority: int(v.spec.Priority),
		Est:      v.estOverhead,
		Actual:   v.dumpCost + time.Duration(done-now),
		Bytes:    v.spec.MemFootprint,
		Flags:    flags,
	})
	v.estOverhead = 0
	v.dumpCost = 0
}

// recordTaskDone observes v completing on its node; the journal's
// completion event lets timelines bound each task's story.
func (s *Simulator) recordTaskDone(v *taskRT, now sim.Time) {
	s.inFlight--
	s.probe(ProbeFinish, v.spec.ID, v.node.id, now)
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "task-done",
		Task:     v.spec.ID.String(),
		Node:     nodeName(v.node.id),
		Priority: int(v.spec.Priority),
	})
}

// recordNodeDown observes a node outage.
func (s *Simulator) recordNodeDown(n *node, now sim.Time) {
	s.probe(ProbeNodeDown, cluster.TaskID{}, n.id, now)
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:   obs.RecEvent,
		At:     time.Duration(now),
		Source: "sched",
		Name:   "node-down",
		Node:   nodeName(n.id),
		Flags:  obs.FlagFailure,
	})
}

// recordFence observes t's displacement off dead node n; the journal's
// task-rescheduled event carries in Unsaved the progress the failure
// destroyed.
func (s *Simulator) recordFence(t *taskRT, n *node, lost time.Duration, now sim.Time) {
	s.inFlight--
	s.probe(ProbeFence, t.spec.ID, n.id, now)
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "task-rescheduled",
		Task:     t.spec.ID.String(),
		Node:     nodeName(n.id),
		Priority: int(t.spec.Priority),
		Unsaved:  lost,
		Flags:    obs.FlagFailure,
	})
}

// recordNodeRecovered observes a node's return to service.
func (s *Simulator) recordNodeRecovered(n *node, now sim.Time) {
	s.probe(ProbeNodeUp, cluster.TaskID{}, n.id, now)
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:   obs.RecEvent,
		At:     time.Duration(now),
		Source: "sched",
		Name:   "node-recovered",
		Node:   nodeName(n.id),
	})
}
