// Package yarn is decisionlog testdata loaded under the import path
// preemptsched/internal/yarn, so Algorithm 1 verdicts taken here must be
// journaled in the same function.
package yarn

import (
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
)

type cluster struct {
	rec *obs.Recorder
}

func (c *cluster) recordDecision(action core.PreemptAction) {
	c.rec.Append(obs.Record{Kind: obs.RecDecision, Name: action.String()})
}

// silentKill decides and acts without journaling — the hole explain
// cannot see past.
func (c *cluster) silentKill() {
	action, _ := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0) // want "verdict is never journaled"
	_ = action
}

// viaHelper journals through the layer's recordDecision method.
func (c *cluster) viaHelper() {
	action, _ := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0)
	c.recordDecision(action)
}

// viaRecorder appends to the flight recorder directly.
func (c *cluster) viaRecorder() {
	action, _ := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0)
	c.rec.Append(obs.Record{Kind: obs.RecDecision, Name: action.String()})
}

// recordDecision is a free function, not the layer helper: naming alone
// does not journal anything.
func recordDecision(action core.PreemptAction) { _ = action }

func (c *cluster) viaImpostor() {
	action, _ := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0) // want "verdict is never journaled"
	recordDecision(action)
}

// noDecision never consults Algorithm 1 — nothing to journal.
func (c *cluster) noDecision() {
	c.rec.Append(obs.Record{Kind: obs.RecEvent, Name: "task-done"})
}
