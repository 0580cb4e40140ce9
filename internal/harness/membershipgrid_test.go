package harness

import (
	"testing"

	"graphword2vec/internal/gluon"
)

func membershipPriority(c MembershipCase) int { return c.Priority }

// TestMembershipGridCasesCoverAxes pins the matrix shape: scenarios ×
// modes × transports × workloads, with the P1 slice touching every
// value of every axis.
func TestMembershipGridCasesCoverAxes(t *testing.T) {
	all := MembershipGridCases()
	if want := 3 * 3 * 2 * 2; len(all) != want {
		t.Fatalf("grid has %d cells, want %d", len(all), want)
	}
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.ID()] {
			t.Fatalf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
	}
	axes := map[string]map[string]bool{
		"scenario": {}, "mode": {}, "transport": {}, "workload": {},
	}
	for _, c := range priorityOne(t, all, membershipPriority) {
		axes["scenario"][c.Scenario.String()] = true
		axes["mode"][c.Mode.String()] = true
		axes["transport"][c.Transport] = true
		axes["workload"][c.Workload] = true
	}
	for axis, want := range map[string]int{"scenario": 3, "mode": 3, "transport": 2, "workload": 2} {
		if len(axes[axis]) != want {
			t.Errorf("P1 slice covers %d %s values, want %d (%v)", len(axes[axis]), axis, want, axes[axis])
		}
	}
}

// TestMembershipGridSmoke is the CI elasticity lane: the priority-1
// slice of the shape-change matrix.
func TestMembershipGridSmoke(t *testing.T) {
	checkMembershipGrid(t, priorityOne(t, MembershipGridCases(), membershipPriority))
}

// TestMembershipGridFull runs the rest of the matrix (the
// EXPERIMENTS.md record), so the two tests together cover every cell
// once.
func TestMembershipGridFull(t *testing.T) {
	checkMembershipGrid(t, pastPriorityOne(t, MembershipGridCases(), membershipPriority))
}

// checkMembershipGrid runs shape-change cells, every one of which must
// converge at its expected cut and continue byte-identically to a
// cluster launched directly from the re-sharded checkpoint.
func checkMembershipGrid(t *testing.T, cases []MembershipCase) {
	t.Helper()
	rows, err := MembershipGrid(faultGridOpts(), cases)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Recovered || !r.Identical {
			t.Errorf("%s: converged=%v identical=%v (cut %d)", r.ID, r.Recovered, r.Identical, r.CutRound)
		}
		// The one legitimate round-0 verdict, on either transport: a
		// PullModel replacement, whose dead rank's master range has no
		// surviving source.
		if r.CutRound == 0 && !(r.Scenario == "replace" && r.Mode == gluon.PullModel.String()) {
			t.Errorf("%s: negotiated a fresh start, want a checkpointed cut", r.ID)
		}
	}
}

// TestSecondFailure: a second rank dying while the cluster is already
// recovering — during resume negotiation, membership negotiation, or a
// range transfer — must not hang the recovery; every survivor surfaces
// gluon.ErrPeerLost.
func TestSecondFailure(t *testing.T) {
	for _, p := range []SecondFaultPoint{SecondFaultResumeOffer, SecondFaultMembershipOffer, SecondFaultTransfer} {
		t.Run(p.String(), func(t *testing.T) {
			if err := SecondFailure(faultGridOpts(), p); err != nil {
				t.Fatal(err)
			}
		})
	}
}
