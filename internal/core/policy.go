// Package core implements the paper's primary contribution: adaptive
// checkpoint-based preemption for cluster schedulers.
//
// It provides, exactly as Section 4 defines them:
//
//   - the checkpoint cost model
//     (overhead = size/bw_write + size/bw_read + queue_time_dump);
//   - Algorithm 1, adaptive preemption: checkpoint a victim only when its
//     unsaved progress exceeds the estimated overhead, else kill it, and
//     use incremental dumps whenever a previous checkpoint exists;
//   - Algorithm 2, adaptive resumption: restore locally or remotely
//     depending on which estimated overhead is lower;
//   - cost-aware victim selection: among preemptable tasks, evict the
//     lowest priority first and, within a priority, those with the lowest
//     estimated checkpoint cost first. RankVictims is the one ordering of
//     victims; CandidateScores turns a ranking into the journal's
//     candidate table.
//
// Both the trace-driven simulator (internal/sched) and the mini-YARN
// framework (internal/yarn) consume these functions, so the policy under
// evaluation is one implementation, not two.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// Policy enumerates the preemption policies the paper compares.
type Policy int

const (
	// PolicyWait never preempts: arriving work waits for running tasks.
	PolicyWait Policy = iota + 1
	// PolicyKill is the baseline used by production schedulers: victims
	// are killed and later restarted from scratch.
	PolicyKill
	// PolicyCheckpoint always checkpoints victims (the "basic"
	// checkpoint-based preemption of Section 3).
	PolicyCheckpoint
	// PolicyAdaptive applies Algorithm 1/2 (Section 4).
	PolicyAdaptive
)

func (p Policy) String() string {
	switch p {
	case PolicyWait:
		return "wait"
	case PolicyKill:
		return "kill"
	case PolicyCheckpoint:
		return "checkpoint"
	case PolicyAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a CLI string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "wait":
		return PolicyWait, nil
	case "kill":
		return PolicyKill, nil
	case "checkpoint", "basic":
		return PolicyCheckpoint, nil
	case "adaptive":
		return PolicyAdaptive, nil
	default:
		return 0, fmt.Errorf("core: unknown policy %q (want wait|kill|checkpoint|adaptive)", s)
	}
}

// Candidate describes one running task considered for preemption.
type Candidate struct {
	Task     cluster.TaskID
	Priority cluster.Priority
	// Demand is the resource reservation that preempting this task frees.
	Demand cluster.Resources
	// UnsavedProgress is the useful compute a kill would lose: time run
	// since the task started or since its last checkpoint was taken.
	UnsavedProgress time.Duration
	// FootprintBytes is the task's full (logical) memory footprint — the
	// amount a full dump writes and a restore reads.
	FootprintBytes int64
	// DirtyBytes is the logical size of the soft-dirty region; it is what
	// an incremental dump writes. Ignored unless HasCheckpoint.
	DirtyBytes int64
	// HasCheckpoint records whether a previous image exists, enabling an
	// incremental dump.
	HasCheckpoint bool
}

// DumpBytes returns the bytes a checkpoint of this candidate writes: the
// dirty region if an incremental dump is possible, the full footprint
// otherwise.
func (c Candidate) DumpBytes() int64 {
	if c.HasCheckpoint {
		return c.DirtyBytes
	}
	return c.FootprintBytes
}

// CheckpointOverhead is the cost model of Algorithm 1:
//
//	overhead = dump_size/bw_write + restore_size/bw_read + queue_time_dump
//
// The dump writes only the (possibly incremental) dump bytes, while the
// eventual restore must read the full footprint; the queue term is how
// long the node's checkpoint queue delays the dump (Section 5.2.2 runs
// checkpoints sequentially per node).
func CheckpointOverhead(c Candidate, dev *storage.Device, now sim.Time) time.Duration {
	return dev.WriteTime(c.DumpBytes()) + dev.ReadTime(c.FootprintBytes) + dev.QueueDelay(now)
}

// PreemptAction is the outcome of Algorithm 1 for one victim.
type PreemptAction int

const (
	// ActionKill destroys the task; it will later restart from scratch
	// (or from its previous checkpoint if one exists).
	ActionKill PreemptAction = iota + 1
	// ActionCheckpointFull suspends the task with a full dump.
	ActionCheckpointFull
	// ActionCheckpointIncremental suspends the task dumping only dirty
	// pages against its previous image.
	ActionCheckpointIncremental
)

func (a PreemptAction) String() string {
	switch a {
	case ActionKill:
		return "kill"
	case ActionCheckpointFull:
		return "checkpoint-full"
	case ActionCheckpointIncremental:
		return "checkpoint-incremental"
	default:
		return fmt.Sprintf("PreemptAction(%d)", int(a))
	}
}

// IsCheckpoint reports whether the action saves task state.
func (a PreemptAction) IsCheckpoint() bool {
	return a == ActionCheckpointFull || a == ActionCheckpointIncremental
}

// DecidePreemption implements Algorithm 1 for a single victim under the
// given policy. dev is the storage device the checkpoint would be written
// to on the victim's node, at virtual time now. It also returns the
// CheckpointOverhead estimate for the victim, computed under every policy,
// so callers journal the value the verdict weighed (or, under a fixed
// policy, would have weighed) instead of re-deriving it.
func DecidePreemption(policy Policy, c Candidate, dev *storage.Device, now sim.Time) (PreemptAction, time.Duration) {
	est := CheckpointOverhead(c, dev, now)
	checkpointAction := ActionCheckpointFull
	if c.HasCheckpoint {
		checkpointAction = ActionCheckpointIncremental
	}
	switch policy {
	case PolicyKill, PolicyWait:
		return ActionKill, est
	case PolicyCheckpoint:
		return checkpointAction, est
	case PolicyAdaptive:
		if c.UnsavedProgress > est {
			return checkpointAction, est
		}
		return ActionKill, est
	default:
		panic(fmt.Sprintf("core: DecidePreemption with invalid policy %v", policy))
	}
}

// Ranked is one entry of a victim ranking.
type Ranked struct {
	// Index is the candidate's position in the caller's input.
	Index    int
	Priority cluster.Priority
	// Cost is the candidate's estimated checkpoint overhead
	// (CheckpointOverhead); zero when the ranking was not cost-aware.
	Cost time.Duration
}

// RankVictims is the single victim ordering both scheduler layers use,
// the rule of cost-aware eviction (Section 5.2.2). It ranks the caller's
// n candidates lowest priority first, so high-priority work is preempted
// last. prio(i) is the priority of candidate i. When score is non-nil the
// ranking is cost-aware: score(i) returns candidate i's Algorithm 1 input
// and the device its dump would use, each entry carries the resulting
// CheckpointOverhead, and within a priority the cheapest checkpoint comes
// first. Remaining ties keep the caller's input order. The ranking
// reuses dst's storage.
func RankVictims(dst []Ranked, n int, prio func(i int) cluster.Priority, score func(i int) (Candidate, *storage.Device), now sim.Time) []Ranked {
	r := dst[:0]
	for i := 0; i < n; i++ {
		e := Ranked{Index: i, Priority: prio(i)}
		if score != nil {
			c, dev := score(i)
			e.Cost = CheckpointOverhead(c, dev, now)
		}
		r = append(r, e)
	}
	slices.SortStableFunc(r, func(a, b Ranked) int {
		if c := cmp.Compare(a.Priority, b.Priority); c != 0 {
			return c
		}
		return cmp.Compare(a.Cost, b.Cost)
	})
	return r
}

// Cover returns the length of the shortest prefix of ranking r whose
// freed resources cover need; demand(i) is what preempting the caller's
// candidate i frees. The boolean result is false when even preempting
// every candidate would not free enough.
func Cover(r []Ranked, need cluster.Resources, demand func(i int) cluster.Resources) (int, bool) {
	var freed cluster.Resources
	for k, e := range r {
		if need.Fits(freed) {
			return k, true
		}
		freed = freed.Add(demand(e.Index))
	}
	return len(r), need.Fits(freed)
}

// CandidateScores renders ranking r as a journal's candidate table
// (obs.RecSelection), flagging the first chosen ranked entries as the
// victims taken. Rows follow rank order, or the caller's input order when
// inputOrder is set. describe(i) names candidate i and reports the
// progress a kill would lose. Costs are the ranking's own, not
// re-derived.
func CandidateScores(r []Ranked, chosen int, inputOrder bool, describe func(i int) (task string, unsaved time.Duration)) []obs.CandidateScore {
	scores := make([]obs.CandidateScore, len(r))
	for k, e := range r {
		row := k
		if inputOrder {
			row = e.Index
		}
		task, unsaved := describe(e.Index)
		scores[row] = obs.CandidateScore{
			Task:     task,
			Priority: int(e.Priority),
			Cost:     e.Cost,
			Unsaved:  unsaved,
			Chosen:   k < chosen,
		}
	}
	return scores
}

// RestorePlacement is the outcome of Algorithm 2.
type RestorePlacement int

const (
	// RestoreLocal resumes the task on the node that checkpointed it.
	RestoreLocal RestorePlacement = iota + 1
	// RestoreRemote resumes the task on a different node, paying a
	// network transfer for the image.
	RestoreRemote
)

func (r RestorePlacement) String() string {
	if r == RestoreLocal {
		return "local"
	}
	return "remote"
}

// RestoreCosts carries the inputs of Algorithm 2.
type RestoreCosts struct {
	// FootprintBytes is the full image size a restore reads.
	FootprintBytes int64
	// LocalDev is the device on the checkpoint's home node; RemoteDev the
	// device on the candidate remote node.
	LocalDev  *storage.Device
	RemoteDev *storage.Device
	// NetBandwidth is the bytes/second available for shipping the image
	// to the remote node.
	NetBandwidth float64
}

// LocalOverhead is Algorithm 2's overhead_local = size/bw_read + queue.
func (rc RestoreCosts) LocalOverhead(now sim.Time) time.Duration {
	return rc.LocalDev.ReadTime(rc.FootprintBytes) + rc.LocalDev.QueueDelay(now)
}

// RemoteOverhead is Algorithm 2's overhead_remote = size/bw_net +
// size/bw_read + queue.
func (rc RestoreCosts) RemoteOverhead(now sim.Time) time.Duration {
	net := time.Duration(float64(rc.FootprintBytes) / rc.NetBandwidth * float64(time.Second))
	return net + rc.RemoteDev.ReadTime(rc.FootprintBytes) + rc.RemoteDev.QueueDelay(now)
}

// DecideRestore implements Algorithm 2: local when its estimated overhead
// does not exceed the remote overhead, remote otherwise.
func DecideRestore(rc RestoreCosts, now sim.Time) RestorePlacement {
	if rc.LocalOverhead(now) <= rc.RemoteOverhead(now) {
		return RestoreLocal
	}
	return RestoreRemote
}

// DefaultNetBandwidth is the modelled cluster network bandwidth
// (10 GbE ≈ 1.1 GB/s effective), used when shipping remote images.
const DefaultNetBandwidth = 1.1e9
