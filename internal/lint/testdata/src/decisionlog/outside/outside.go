// Package outside is decisionlog testdata loaded under a path outside
// the scheduler layers: core's own tests and benchmarks may probe
// Algorithm 1 freely without a flight recorder in reach.
package outside

import "preemptsched/internal/core"

func probe() core.PreemptAction {
	action, _ := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0)
	return action
}
