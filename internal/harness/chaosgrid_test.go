package harness

import (
	"testing"
)

func chaosPriority(c ChaosCase) int { return c.Priority }

// TestChaosGridCasesCoverAxes pins the matrix shape: the full grid is
// classes × modes × workloads, and the P1 smoke slice still touches
// every value of every axis.
func TestChaosGridCasesCoverAxes(t *testing.T) {
	all := ChaosGridCases()
	if want := 8 * 3 * 2; len(all) != want {
		t.Fatalf("grid has %d cells, want %d", len(all), want)
	}
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.ID()] {
			t.Fatalf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
	}
	smoke := priorityOne(t, all, chaosPriority)
	if want := 2 * 3 * 2; len(smoke) != want {
		t.Fatalf("P1 slice has %d cells, want %d", len(smoke), want)
	}
	axes := map[string]map[string]bool{"class": {}, "mode": {}, "workload": {}}
	for _, c := range smoke {
		axes["class"][c.Class.String()] = true
		axes["mode"][c.Mode.String()] = true
		axes["workload"][c.Workload] = true
	}
	for axis, want := range map[string]int{"class": 8, "mode": 3, "workload": 2} {
		if len(axes[axis]) != want {
			t.Errorf("P1 slice covers %d %s values, want %d (%v)", len(axes[axis]), axis, want, axes[axis])
		}
	}
}

// TestChaosGridSmoke is the CI resilience lane: the priority-1 slice
// of the fault matrix.
func TestChaosGridSmoke(t *testing.T) {
	checkChaosGrid(t, priorityOne(t, ChaosGridCases(), chaosPriority))
}

// TestChaosGridFull runs the rest of the matrix (the EXPERIMENTS.md
// case table), so the two tests together cover every cell once.
func TestChaosGridFull(t *testing.T) {
	checkChaosGrid(t, pastPriorityOne(t, ChaosGridCases(), chaosPriority))
}

// checkChaosGrid runs fault-matrix cells. Every healing cell must
// finish byte-identical to the fault-free reference while the network
// drops, duplicates, reorders, corrupts, delays, resets and partitions
// its frames; the storm cells must escalate to ErrPeerLost and resume
// byte-identically from a checkpointed round.
func checkChaosGrid(t *testing.T, cases []ChaosCase) {
	t.Helper()
	rows, err := ChaosGrid(faultGridOpts(), cases)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: diverged from the fault-free reference (healed=%v escalated=%v)", r.ID, r.Healed, r.Escalated)
		}
		if r.Injections == 0 {
			t.Errorf("%s: no faults injected", r.ID)
		}
		if r.Escalated && r.ResumedFrom == 0 {
			t.Errorf("%s: escalated but resumed from round 0, want a checkpointed round", r.ID)
		}
	}
}
