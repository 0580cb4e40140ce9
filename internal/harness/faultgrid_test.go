package harness

import (
	"io"
	"testing"

	"graphword2vec/internal/synth"
)

func faultGridOpts() Options {
	o := Defaults(synth.ScaleTiny)
	o.Hosts = faultGridHosts
	o.Out = io.Discard
	return o.WithDefaults()
}

// priorityOne filters a recovery grid's case table down to its
// priority-1 diagonal, which covers every value of every axis at least
// once.
func priorityOne[C any](t *testing.T, all []C, priority func(C) int) []C {
	t.Helper()
	var cases []C
	for _, c := range all {
		if priority(c) == 1 {
			cases = append(cases, c)
		}
	}
	if len(cases) == 0 {
		t.Fatal("no priority-1 cases in the grid")
	}
	return cases
}

// pastPriorityOne is what a recovery grid's Full test runs: the cells
// its Smoke test's priority-1 diagonal leaves out, so that a plain
// `go test` runs every cell once. It skips under -short (the CI lanes).
func pastPriorityOne[C any](t *testing.T, all []C, priority func(C) int) []C {
	t.Helper()
	if testing.Short() {
		t.Skip("the cells past the priority-1 diagonal")
	}
	var cases []C
	for _, c := range all {
		if priority(c) != 1 {
			cases = append(cases, c)
		}
	}
	return cases
}

func faultPriority(c FaultCase) int { return c.Priority }

// TestFaultGridCasesCoverAxes pins the matrix shape: the full grid is
// points × modes × transports × workloads, and the P1 smoke slice still
// touches every value of every axis.
func TestFaultGridCasesCoverAxes(t *testing.T) {
	all := FaultGridCases()
	if want := 5 * 3 * 2 * 2; len(all) != want {
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
		"point": {}, "mode": {}, "transport": {}, "workload": {},
	}
	for _, c := range priorityOne(t, all, faultPriority) {
		axes["point"][c.Point.String()] = true
		axes["mode"][c.Mode.String()] = true
		axes["transport"][c.Transport] = true
		axes["workload"][c.Workload] = true
	}
	for axis, want := range map[string]int{"point": 5, "mode": 3, "transport": 2, "workload": 2} {
		if len(axes[axis]) != want {
			t.Errorf("P1 slice covers %d %s values, want %d (%v)", len(axes[axis]), axis, want, axes[axis])
		}
	}
}

// TestFaultGridSmoke is the CI recovery lane: the priority-1 slice of
// the kill matrix.
func TestFaultGridSmoke(t *testing.T) {
	checkFaultGrid(t, priorityOne(t, FaultGridCases(), faultPriority))
}

// TestFaultGridFull runs the rest of the matrix (the EXPERIMENTS.md
// case table), so the two tests together cover every cell once.
func TestFaultGridFull(t *testing.T) {
	checkFaultGrid(t, pastPriorityOne(t, FaultGridCases(), faultPriority))
}

// checkFaultGrid runs kill-matrix cells, every one of which must
// recover from its injected fault with a byte-identical model, resuming
// from a checkpointed round.
func checkFaultGrid(t *testing.T, cases []FaultCase) {
	t.Helper()
	rows, err := FaultGrid(faultGridOpts(), cases)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Recovered || !r.Identical {
			t.Errorf("%s: recovered=%v identical=%v (resumed from %d)", r.ID, r.Recovered, r.Identical, r.ResumedFrom)
		}
		if r.ResumedFrom == 0 {
			t.Errorf("%s: resumed from round 0, want a checkpointed round", r.ID)
		}
	}
}
