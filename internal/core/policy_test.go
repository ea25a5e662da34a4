package core

import (
	"testing"
	"testing/quick"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/storage"
)

func candGiB(footprintGiB float64, progress time.Duration) Candidate {
	return Candidate{
		Task:            cluster.TaskID{Job: 1},
		Demand:          cluster.Resources{CPUMillis: 1000, MemBytes: cluster.GiB(footprintGiB)},
		UnsavedProgress: progress,
		FootprintBytes:  cluster.GiB(footprintGiB),
		DirtyBytes:      cluster.GiB(footprintGiB / 10),
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"wait": PolicyWait, "kill": PolicyKill,
		"checkpoint": PolicyCheckpoint, "basic": PolicyCheckpoint,
		"adaptive": PolicyAdaptive,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyWait: "wait", PolicyKill: "kill",
		PolicyCheckpoint: "checkpoint", PolicyAdaptive: "adaptive",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

func TestCheckpointOverheadFormula(t *testing.T) {
	// A clean device with 1 GB/s both ways and no latency: overhead for a
	// full dump of 2 GB must be write(2GB) + read(2GB) = 4 s.
	dev := storage.NewCustomDevice(1e9, 0)
	c := Candidate{FootprintBytes: 2e9, DirtyBytes: 2e8}
	if got := CheckpointOverhead(c, dev, 0); got != 4*time.Second {
		t.Errorf("overhead = %v, want 4s", got)
	}
	// With a previous checkpoint the dump is incremental (0.2 GB) but the
	// restore still reads the full footprint: 0.2 + 2 = 2.2 s.
	c.HasCheckpoint = true
	if got := CheckpointOverhead(c, dev, 0); got != 2200*time.Millisecond {
		t.Errorf("incremental overhead = %v, want 2.2s", got)
	}
	// Queue time adds in: reserve 3 s of prior work on the device.
	dev.Reserve(0, 3*time.Second)
	if got := CheckpointOverhead(c, dev, 0); got != 5200*time.Millisecond {
		t.Errorf("queued overhead = %v, want 5.2s", got)
	}
}

func TestDecidePreemptionAdaptiveThreshold(t *testing.T) {
	dev := storage.NewCustomDevice(1e9, 0) // overhead for 1 GiB full: ~2.15 s
	young := candGiB(1, time.Second)       // progress below overhead
	old := candGiB(1, time.Minute)         // progress above overhead
	oldIncr := old
	oldIncr.HasCheckpoint = true
	for _, tc := range []struct {
		name string
		c    Candidate
		want PreemptAction
	}{
		{"young task", young, ActionKill},
		{"old task", old, ActionCheckpointFull},
		{"old task with image", oldIncr, ActionCheckpointIncremental},
	} {
		got, est := DecidePreemption(PolicyAdaptive, tc.c, dev, 0)
		if got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
		// The returned estimate is the overhead the verdict weighed.
		if want := CheckpointOverhead(tc.c, dev, 0); est != want {
			t.Errorf("%s: estimate %v, want %v", tc.name, est, want)
		}
	}
}

func TestDecidePreemptionFixedPolicies(t *testing.T) {
	dev := storage.NewDevice(storage.HDD)
	dev.Reserve(0, 3*time.Second) // the queue term shows in the estimate
	c := candGiB(5, time.Hour)
	incr := c
	incr.HasCheckpoint = true
	for _, tc := range []struct {
		policy Policy
		c      Candidate
		want   PreemptAction
	}{
		{PolicyKill, c, ActionKill},
		{PolicyWait, c, ActionKill}, // forced preemption
		{PolicyCheckpoint, c, ActionCheckpointFull},
		{PolicyCheckpoint, incr, ActionCheckpointIncremental},
	} {
		got, est := DecidePreemption(tc.policy, tc.c, dev, 0)
		if got != tc.want {
			t.Errorf("%v policy (image %v): %v, want %v", tc.policy, tc.c.HasCheckpoint, got, tc.want)
		}
		// Fixed policies ignore the estimate but still return it, so
		// every verdict can be journaled against the cost model.
		if want := CheckpointOverhead(tc.c, dev, 0); est != want || est <= 3*time.Second {
			t.Errorf("%v policy (image %v): estimate %v, want %v", tc.policy, tc.c.HasCheckpoint, est, want)
		}
	}
}

// The crossover property behind Fig. 4/6: for a task with fixed progress,
// slow storage ⇒ kill, fast storage ⇒ checkpoint, and the decision is
// monotone in bandwidth.
func TestAdaptiveCrossoverMonotoneInBandwidth(t *testing.T) {
	c := candGiB(5, 30*time.Second)
	prevCheckpointed := false
	for _, gbps := range []float64{0.1, 0.3, 0.5, 1, 2, 3, 4, 5} {
		dev := storage.NewCustomDevice(gbps*1e9, 0)
		action, _ := DecidePreemption(PolicyAdaptive, c, dev, 0)
		if prevCheckpointed && !action.IsCheckpoint() {
			t.Fatalf("decision flipped back to kill at %.1f GB/s", gbps)
		}
		if action.IsCheckpoint() {
			prevCheckpointed = true
		}
	}
	if !prevCheckpointed {
		t.Error("never checkpointed even at 5 GB/s")
	}
	// And the slowest setting must kill (30 s progress vs ~100 s overhead).
	slow := storage.NewCustomDevice(0.1e9, 0)
	if action, _ := DecidePreemption(PolicyAdaptive, c, slow, 0); action.IsCheckpoint() {
		t.Error("checkpointed on 0.1 GB/s storage with 30s progress")
	}
}

// rankCands ranks a []Candidate the way the scheduler layers rank their
// own task records: cost-aware when costAware, by priority alone
// otherwise.
func rankCands(cands []Candidate, costAware bool, dev *storage.Device) []Ranked {
	var score func(int) (Candidate, *storage.Device)
	if costAware {
		score = func(i int) (Candidate, *storage.Device) { return cands[i], dev }
	}
	return RankVictims(nil, len(cands), func(i int) cluster.Priority { return cands[i].Priority }, score, 0)
}

// selectVictims ranks cost-aware and takes the shortest covering prefix,
// the simulator's adaptive victim selection.
func selectVictims(cands []Candidate, need cluster.Resources, dev *storage.Device) ([]Candidate, bool) {
	r := rankCands(cands, true, dev)
	take, ok := Cover(r, need, func(i int) cluster.Resources { return cands[i].Demand })
	if !ok {
		return nil, false
	}
	victims := make([]Candidate, take)
	for k, e := range r[:take] {
		victims[k] = cands[e.Index]
	}
	return victims, true
}

func TestSelectVictimsPriorityThenCost(t *testing.T) {
	dev := storage.NewDevice(storage.SSD)
	mk := func(job int64, prio cluster.Priority, footGiB float64) Candidate {
		c := candGiB(footGiB, time.Hour)
		c.Task = cluster.TaskID{Job: cluster.JobID(job)}
		c.Priority = prio
		return c
	}
	cands := []Candidate{
		mk(1, 5, 1), // higher priority: spared
		mk(2, 0, 8), // low priority, expensive dump
		mk(3, 0, 1), // low priority, cheap dump: first victim
	}
	need := cluster.Resources{CPUMillis: 1000, MemBytes: cluster.GiB(1)}
	victims, ok := selectVictims(cands, need, dev)
	if !ok || len(victims) != 1 || victims[0].Task.Job != 3 {
		t.Fatalf("victims = %+v (ok=%v), want just job 3", victims, ok)
	}
	// Needing more takes the expensive low-priority task next.
	need = cluster.Resources{CPUMillis: 2000, MemBytes: cluster.GiB(2)}
	victims, ok = selectVictims(cands, need, dev)
	if !ok || len(victims) != 2 || victims[0].Task.Job != 3 || victims[1].Task.Job != 2 {
		t.Fatalf("victims = %+v (ok=%v), want jobs 3 then 2", victims, ok)
	}
	// Each entry carries the cost the ranking weighed.
	for _, e := range rankCands(cands, true, dev) {
		if want := CheckpointOverhead(cands[e.Index], dev, 0); e.Cost != want {
			t.Errorf("candidate %d cost = %v, want %v", e.Index, e.Cost, want)
		}
	}
	// Without scoring the ranking is by priority alone, input order
	// within a priority, and carries no costs.
	r := rankCands(cands, false, dev)
	if got := []int{r[0].Index, r[1].Index, r[2].Index}; got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("priority-only ranking = %v, want [1 2 0]", got)
	}
	for _, e := range r {
		if e.Cost != 0 {
			t.Errorf("unscored ranking carries cost %v", e.Cost)
		}
	}
}

// The YARN RM feeds candidates in task-seq order and takes the first
// ranked entry; the ranking must then equal a sort on the full
// (priority, cost, seq) key.
func TestRankVictimsPrioCostSeqOrder(t *testing.T) {
	dev := storage.NewDevice(storage.SSD)
	type task struct {
		seq  uint64
		prio cluster.Priority
		foot float64
	}
	// Listed in seq order; ties in (priority, cost) are jobs 2/4 and 5/6.
	tasks := []task{
		{seq: 1, prio: 3, foot: 2},
		{seq: 2, prio: 1, foot: 4},
		{seq: 3, prio: 1, foot: 1},
		{seq: 4, prio: 1, foot: 4},
		{seq: 5, prio: 0, foot: 8},
		{seq: 6, prio: 0, foot: 8},
		{seq: 7, prio: 3, foot: 1},
	}
	cands := make([]Candidate, len(tasks))
	for i, tk := range tasks {
		cands[i] = candGiB(tk.foot, time.Minute)
		cands[i].Priority = tk.prio
	}
	r := rankCands(cands, true, dev)
	var gotSeq []uint64
	for _, e := range r {
		gotSeq = append(gotSeq, tasks[e.Index].seq)
	}
	want := []uint64{5, 6, 3, 2, 4, 7, 1}
	for i := range want {
		if gotSeq[i] != want[i] {
			t.Fatalf("ranked seqs = %v, want %v", gotSeq, want)
		}
	}
}

func TestSelectVictimsInsufficient(t *testing.T) {
	dev := storage.NewDevice(storage.NVM)
	cands := []Candidate{candGiB(1, time.Minute)}
	need := cluster.Resources{CPUMillis: 99_000, MemBytes: cluster.GiB(99)}
	if v, ok := selectVictims(cands, need, dev); ok || v != nil {
		t.Errorf("impossible need returned victims %v (ok=%v)", v, ok)
	}
}

func TestSelectVictimsZeroNeed(t *testing.T) {
	dev := storage.NewDevice(storage.NVM)
	cands := []Candidate{candGiB(1, time.Minute)}
	v, ok := selectVictims(cands, cluster.Resources{}, dev)
	if !ok || len(v) != 0 {
		t.Errorf("zero need: victims=%v ok=%v, want none/true", v, ok)
	}
}

// Property: rank-then-cover either fails or yields a set whose demand
// covers the need, and never includes a higher-priority task while a
// lower-priority candidate was left unpicked.
func TestSelectVictimsProperty(t *testing.T) {
	dev := storage.NewDevice(storage.SSD)
	f := func(prios []uint8, needCPU uint16) bool {
		if len(prios) > 20 {
			prios = prios[:20]
		}
		cands := make([]Candidate, len(prios))
		for i, p := range prios {
			cands[i] = candGiB(1, time.Hour)
			cands[i].Task = cluster.TaskID{Job: cluster.JobID(i)}
			cands[i].Priority = cluster.Priority(p % 12)
		}
		need := cluster.Resources{CPUMillis: int64(needCPU) % 20_000}
		victims, ok := selectVictims(cands, need, dev)
		if !ok {
			// Must genuinely be infeasible.
			var all cluster.Resources
			for _, c := range cands {
				all = all.Add(c.Demand)
			}
			return !need.Fits(all)
		}
		var freed cluster.Resources
		maxVictimPrio := cluster.Priority(-1)
		picked := map[cluster.JobID]bool{}
		for _, v := range victims {
			freed = freed.Add(v.Demand)
			picked[v.Task.Job] = true
			if v.Priority > maxVictimPrio {
				maxVictimPrio = v.Priority
			}
		}
		if !need.Fits(freed) {
			return false
		}
		// No unpicked candidate may have priority strictly below the
		// highest-priority victim... unless dropping a victim would
		// uncover the need; with uniform demands the simple check holds.
		for _, c := range cands {
			if !picked[c.Task.Job] && c.Priority < maxVictimPrio {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCandidateScoresRowOrder(t *testing.T) {
	r := []Ranked{
		{Index: 2, Priority: 0, Cost: time.Second},
		{Index: 0, Priority: 1, Cost: 3 * time.Second},
		{Index: 1, Priority: 1, Cost: 5 * time.Second},
	}
	names := []string{"a", "b", "c"}
	describe := func(i int) (string, time.Duration) { return names[i], time.Duration(i) * time.Minute }

	ranked := CandidateScores(r, 1, false, describe)
	if ranked[0].Task != "c" || !ranked[0].Chosen || ranked[0].Cost != time.Second || ranked[0].Unsaved != 2*time.Minute ||
		ranked[1].Task != "a" || ranked[1].Chosen || ranked[2].Task != "b" || ranked[2].Priority != 1 {
		t.Errorf("rank-order rows = %+v", ranked)
	}
	input := CandidateScores(r, 2, true, describe)
	if input[0].Task != "a" || !input[0].Chosen || input[0].Cost != 3*time.Second ||
		input[1].Task != "b" || input[1].Chosen ||
		input[2].Task != "c" || !input[2].Chosen {
		t.Errorf("input-order rows = %+v", input)
	}
}

func TestDecideRestore(t *testing.T) {
	local := storage.NewCustomDevice(1e9, 0)
	remote := storage.NewCustomDevice(1e9, 0)
	rc := RestoreCosts{
		FootprintBytes: 1e9,
		LocalDev:       local,
		RemoteDev:      remote,
		NetBandwidth:   1e9,
	}
	// Idle devices: local read 1 s vs remote net 1 s + read 1 s.
	if got := DecideRestore(rc, 0); got != RestoreLocal {
		t.Errorf("idle devices: %v, want local", got)
	}
	// Busy local queue (5 s) makes remote cheaper: 5+1 > 1+1.
	local.Reserve(0, 5*time.Second)
	if got := DecideRestore(rc, 0); got != RestoreRemote {
		t.Errorf("busy local: %v, want remote", got)
	}
	if rc.LocalOverhead(0) != 6*time.Second {
		t.Errorf("LocalOverhead = %v", rc.LocalOverhead(0))
	}
	if rc.RemoteOverhead(0) != 2*time.Second {
		t.Errorf("RemoteOverhead = %v", rc.RemoteOverhead(0))
	}
}

func TestActionStrings(t *testing.T) {
	if ActionKill.String() != "kill" || ActionCheckpointFull.String() != "checkpoint-full" ||
		ActionCheckpointIncremental.String() != "checkpoint-incremental" {
		t.Error("action names changed")
	}
	if ActionKill.IsCheckpoint() || !ActionCheckpointFull.IsCheckpoint() || !ActionCheckpointIncremental.IsCheckpoint() {
		t.Error("IsCheckpoint misclassifies")
	}
	if RestoreLocal.String() != "local" || RestoreRemote.String() != "remote" {
		t.Error("placement names changed")
	}
}
