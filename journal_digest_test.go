package preemptsched_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sched"
	"preemptsched/internal/sched/density"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// journalDigest serializes rec and returns the SHA-256 of the .pjl bytes
// together with the decoded journal.
func journalDigest(t *testing.T, rec *obs.Recorder) (string, *obs.Journal) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	j, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if j.Dropped != 0 {
		t.Fatalf("recorder dropped %d records; the digest would not cover the run", j.Dropped)
	}
	return hex.EncodeToString(sum[:]), j
}

// TestSchedJournalDigests pins the simulator's whole observation path —
// victim-selection tables, Algorithm 1 verdicts, dump/restore windows and
// the sched.* registry counters — on one contended density cell per
// policy. Any change to victim ranking, candidate scoring or journal
// record construction that alters a byte shows up here.
func TestSchedJournalDigests(t *testing.T) {
	jobs, err := density.Generate(density.Spec{Seed: 7, Nodes: 25, Tasks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy     core.Policy
		records    int
		selections int
		digest     string
		counters   map[string]int64
	}{
		{core.PolicyKill, 3426, 713, "eb7bb22bc6558ecf6acba3d5d0abd208095407ca89f338a4206cbe5dbe51deaf", map[string]int64{
			"sched.policy.decision.checkpoint-full":        0,
			"sched.policy.decision.checkpoint-incremental": 0,
			"sched.policy.decision.kill":                   713,
			"sched.policy.restore.local":                   0,
			"sched.policy.restore.remote":                  0,
		}},
		{core.PolicyCheckpoint, 3656, 414, "13ca23e6eec813af7acc0d9d413e976c0515b8abbbba3c938db9f0b41cd0f1f4", map[string]int64{
			"sched.policy.decision.checkpoint-full":        395,
			"sched.policy.decision.checkpoint-incremental": 19,
			"sched.policy.decision.kill":                   0,
			"sched.policy.restore.local":                   141,
			"sched.policy.restore.remote":                  273,
		}},
		{core.PolicyAdaptive, 3566, 444, "b765f13393688cd1cf978ad3f1a50ade68377d76b8b952962a3df4f271dc8c64", map[string]int64{
			"sched.policy.decision.checkpoint-full":        271,
			"sched.policy.decision.checkpoint-incremental": 33,
			"sched.policy.decision.kill":                   140,
			"sched.policy.restore.local":                   59,
			"sched.policy.restore.remote":                  315,
		}},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			cfg := sched.DefaultConfig(tc.policy, storage.SSD)
			cfg.Nodes = 25
			cfg.Recorder = obs.NewRecorder(0, 0)
			cfg.Metrics = obs.NewRegistry()
			if _, err := sched.Run(cfg, jobs); err != nil {
				t.Fatal(err)
			}
			digest, j := journalDigest(t, cfg.Recorder)
			selections := 0
			for _, r := range j.Records {
				if r.Kind == obs.RecSelection {
					selections++
				}
			}
			if len(j.Records) != tc.records || selections != tc.selections {
				t.Errorf("journal holds %d records, %d selections; want %d, %d", len(j.Records), selections, tc.records, tc.selections)
			}
			if digest != tc.digest {
				t.Errorf("journal digest = %s, want %s", digest, tc.digest)
			}
			if got := cfg.Metrics.Snapshot().Counters; !reflect.DeepEqual(got, tc.counters) {
				t.Errorf("counters = %#v, want %#v", got, tc.counters)
			}
		})
	}
}

// TestYarnJournalDigests pins the YARN RM/AM journal on the workload the
// cmd/explain tests replay, under the cost-aware and the kill policy.
func TestYarnJournalDigests(t *testing.T) {
	wc := workload.DefaultFacebookConfig()
	wc.Seed = 21
	wc.Jobs = 8
	wc.TotalTasks = 240
	jobs, err := workload.Facebook(wc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy core.Policy
		digest string
	}{
		{core.PolicyAdaptive, "23962c2385d3b614e397cbe53dd55ac2975644578da1facfd5b7223e8eae58ce"},
		{core.PolicyKill, "9356e98dcb5d2731d26bfad83e58b1527dcc9d41f460eb0cc051c98ef342e48c"},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			cfg := yarn.DefaultConfig(tc.policy, storage.SSD)
			cfg.Nodes = 2
			cfg.ContainersPerNode = 8
			cfg.Recorder = obs.NewRecorder(0, 0)
			if _, err := yarn.Run(cfg, jobs); err != nil {
				t.Fatal(err)
			}
			if digest, _ := journalDigest(t, cfg.Recorder); digest != tc.digest {
				t.Errorf("journal digest = %s, want %s", digest, tc.digest)
			}
		})
	}
}
