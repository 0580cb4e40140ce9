package harness

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"graphword2vec/internal/gluon"
	"graphword2vec/internal/synth"
)

// The recovery grid's tests are filters over the one case table: each
// of the fault, membership and chaos slices has a Smoke test (its
// priority-1 diagonal, the CI lanes) and a Full test (every other cell,
// skipped under -short), so a plain `go test` runs each cell once.

func gridOpts() Options {
	o := Defaults(synth.ScaleTiny)
	o.Hosts = gridHosts
	o.Out = io.Discard
	return o.WithDefaults()
}

// The slices: kill cells, shape-change cells and chaos cells (composed
// faults included, since each has a chaos axis); second failures run
// under TestSecondFailure.
func faultSlice(c RecoveryCase) bool {
	return c.Kill != nil && c.Chaos == nil && c.Second == nil
}
func membershipSlice(c RecoveryCase) bool {
	return c.Shape != nil && c.Chaos == nil && c.Second == nil
}
func chaosSlice(c RecoveryCase) bool { return c.Chaos != nil }

// cellsWhere filters the table.
func cellsWhere(keep func(RecoveryCase) bool) []RecoveryCase {
	var out []RecoveryCase
	for _, c := range RecoveryCases() {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// priorityOne is a slice's smoke diagonal.
func priorityOne(t *testing.T, keep func(RecoveryCase) bool) []RecoveryCase {
	t.Helper()
	cases := cellsWhere(func(c RecoveryCase) bool { return keep(c) && c.Priority == 1 })
	if len(cases) == 0 {
		t.Fatal("no priority-1 cases in the slice")
	}
	return cases
}

// pastPriorityOne is what a slice's Full test runs: the cells its
// Smoke test leaves out. It skips under -short (the CI lanes).
func pastPriorityOne(t *testing.T, keep func(RecoveryCase) bool) []RecoveryCase {
	t.Helper()
	if testing.Short() {
		t.Skip("the cells past the priority-1 diagonal")
	}
	return cellsWhere(func(c RecoveryCase) bool { return keep(c) && c.Priority != 1 })
}

// checkAxes pins a slice's single-fault matrix: n cells with unique
// IDs, whose priority-1 cells cover want values of each axis. It
// returns the single-fault cells.
func checkAxes(t *testing.T, keep func(RecoveryCase) bool, n int, want map[string]int) []RecoveryCase {
	t.Helper()
	single := cellsWhere(func(c RecoveryCase) bool { return keep(c) && len(c.faults()) == 1 })
	if len(single) != n {
		t.Fatalf("slice has %d single-fault cells, want %d", len(single), n)
	}
	seen := map[string]bool{}
	axes := map[string]map[string]bool{}
	for _, c := range single {
		if seen[c.ID()] {
			t.Fatalf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
		if c.Priority != 1 {
			continue
		}
		for axis, v := range map[string]string{
			"kill": label(c.Kill), "shape": label(c.Shape), "chaos": label(c.Chaos),
			"mode": c.Mode.String(), "transport": c.Transport, "workload": c.Workload,
		} {
			if axes[axis] == nil {
				axes[axis] = map[string]bool{}
			}
			axes[axis][v] = true
		}
	}
	for axis, w := range want {
		if len(axes[axis]) != w {
			t.Errorf("P1 slice covers %d %s values, want %d (%v)", len(axes[axis]), axis, w, axes[axis])
		}
	}
	return single
}

// checkRecovery runs cells, every one of which must pass its verdict:
// a model byte-identical to its reference, or for a second failure the
// expected error class on every rank.
func checkRecovery(t *testing.T, cases []RecoveryCase) {
	t.Helper()
	rows, err := RecoveryGrid(gridOpts(), cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cases) {
		t.Fatalf("%d rows for %d cells", len(rows), len(cases))
	}
	for _, r := range rows {
		if !r.ok() {
			t.Errorf("%s: recovered=%v identical=%v errors=%v (resumed from %d)", r.ID, r.Recovered, r.Identical, r.RankErrors, r.ResumedFrom)
		}
		// Every relaunch after a kill resumes from a checkpointed round;
		// a shape change reaches a checkpointed cut, except a PullModel
		// replacement, whose dead rank's master range has no surviving
		// source.
		relaunched := r.Kill != "" || r.Shape != "" || r.Escalated
		freshStart := r.Shape == "replace" && r.Mode == gluon.PullModel.String()
		if r.Second == "" && relaunched && !freshStart && r.ResumedFrom == 0 {
			t.Errorf("%s: resumed from round 0, want a checkpointed round", r.ID)
		}
		if r.Chaos != "" && r.Injections == 0 {
			t.Errorf("%s: no faults injected", r.ID)
		}
	}
}

// TestFaultGridCasesCoverAxes pins the kill matrix: points × modes ×
// transports × workloads, with the P1 slice touching every value of
// every axis.
func TestFaultGridCasesCoverAxes(t *testing.T) {
	checkAxes(t, faultSlice, 5*3*2*2, map[string]int{"kill": 5, "mode": 3, "transport": 2, "workload": 2})
}

// TestFaultGridSmoke is the CI recovery lane: the priority-1 slice of
// the kill matrix.
func TestFaultGridSmoke(t *testing.T) { checkRecovery(t, priorityOne(t, faultSlice)) }

// TestFaultGridFull runs the rest of the kill matrix.
func TestFaultGridFull(t *testing.T) { checkRecovery(t, pastPriorityOne(t, faultSlice)) }

// TestMembershipGridCasesCoverAxes pins the shape-change matrix: shape
// changes × modes × transports × workloads.
func TestMembershipGridCasesCoverAxes(t *testing.T) {
	checkAxes(t, membershipSlice, 3*3*2*2, map[string]int{"shape": 3, "mode": 3, "transport": 2, "workload": 2})
}

// TestMembershipGridSmoke is the CI elasticity lane: the priority-1
// slice of the shape-change matrix.
func TestMembershipGridSmoke(t *testing.T) { checkRecovery(t, priorityOne(t, membershipSlice)) }

// TestMembershipGridFull runs the rest of the shape-change matrix.
func TestMembershipGridFull(t *testing.T) { checkRecovery(t, pastPriorityOne(t, membershipSlice)) }

// TestChaosGridCasesCoverAxes pins the chaos matrix: classes × modes ×
// workloads over TCP, two P1 classes per (workload, mode) covering
// every class, plus the composed cells, at least one of them P1.
func TestChaosGridCasesCoverAxes(t *testing.T) {
	single := checkAxes(t, chaosSlice, 8*3*2, map[string]int{"chaos": 8, "mode": 3, "workload": 2})
	p1 := 0
	for _, c := range single {
		if c.Priority == 1 {
			p1++
		}
	}
	if want := 2 * 3 * 2; p1 != want {
		t.Errorf("P1 slice has %d single-fault cells, want %d", p1, want)
	}
	composed := cellsWhere(func(c RecoveryCase) bool { return chaosSlice(c) && len(c.faults()) == 2 })
	if len(composed) != 3 {
		t.Fatalf("%d composed cells, want 3", len(composed))
	}
	shapes, kills, p1 := 0, 0, 0
	for _, c := range composed {
		if c.Shape != nil {
			shapes++
		}
		if c.Kill != nil {
			kills++
		}
		if c.Priority == 1 {
			p1++
		}
		if *c.Chaos == ChaosStorm {
			t.Errorf("%s: composed cells pair a fault with a healing class", c.ID())
		}
	}
	if shapes == 0 || kills == 0 || p1 == 0 {
		t.Errorf("composed cells: %d shape changes, %d kills, %d P1; want each > 0", shapes, kills, p1)
	}
}

// TestChaosGridSmoke is the CI resilience lane: the priority-1 slice
// of the chaos matrix, a composed cell included.
func TestChaosGridSmoke(t *testing.T) { checkRecovery(t, priorityOne(t, chaosSlice)) }

// TestChaosGridFull runs the rest of the chaos matrix.
func TestChaosGridFull(t *testing.T) { checkRecovery(t, pastPriorityOne(t, chaosSlice)) }

// TestSecondFailure: a second rank dying while the cluster is already
// recovering — during resume negotiation, membership negotiation, or a
// range transfer — must not hang the recovery: the victim dies of the
// injected kill and every survivor surfaces gluon.ErrPeerLost.
func TestSecondFailure(t *testing.T) {
	cases := cellsWhere(func(c RecoveryCase) bool { return c.Second != nil })
	if len(cases) != 3 {
		t.Fatalf("%d second-failure cells, want 3", len(cases))
	}
	for _, c := range cases {
		t.Run(c.Second.String(), func(t *testing.T) { checkRecovery(t, []RecoveryCase{c}) })
	}
}

// TestRecoveryCellSeedIsItsOwn: a cell's chaos schedule seed depends
// on the cell and the run's seed only, not on which cells run beside
// it, and no two cells share one.
func TestRecoveryCellSeedIsItsOwn(t *testing.T) {
	base := gridOpts().Seed
	alone := RecoveryCase{Priority: 1, Workload: "graph", Mode: gluon.PullModel, Transport: "tcp", Chaos: ptr(ChaosReset)}
	found := false
	seeds := map[uint64]string{}
	for _, c := range RecoveryCases() {
		if other, dup := seeds[c.seed(base)]; dup {
			t.Errorf("%s and %s share seed %d", c.ID(), other, c.seed(base))
		}
		seeds[c.seed(base)] = c.ID()
		if c.ID() == alone.ID() {
			found = true
			if c.seed(base) != alone.seed(base) {
				t.Errorf("%s: seed %d in the table, %d alone", c.ID(), c.seed(base), alone.seed(base))
			}
		}
	}
	if !found {
		t.Fatalf("%s is not a cell of the table", alone.ID())
	}
	if alone.seed(base) == alone.seed(base+1) {
		t.Error("the cell seed ignores the run's seed")
	}
}

// TestRecoveryBenchMatchesTable: the committed record and the table
// cannot drift — every row of BENCH_recovery.json is a cell, and every
// cell has exactly one row.
func TestRecoveryBenchMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string        `json:"experiment"`
		Rows       []RecoveryRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "recovery-grid" {
		t.Errorf("BENCH_recovery.json records %q, want recovery-grid", doc.Experiment)
	}
	cells := map[string]bool{}
	for _, c := range RecoveryCases() {
		if cells[c.ID()] {
			t.Errorf("duplicate cell %s", c.ID())
		}
		cells[c.ID()] = true
	}
	rows := map[string]bool{}
	for _, r := range doc.Rows {
		if !cells[r.ID] {
			t.Errorf("row %s is not a cell of RecoveryCases()", r.ID)
		}
		if rows[r.ID] {
			t.Errorf("row %s recorded twice", r.ID)
		}
		rows[r.ID] = true
		if !r.ok() {
			t.Errorf("row %s records a failed verdict", r.ID)
		}
	}
	for id := range cells {
		if !rows[id] {
			t.Errorf("cell %s has no row in BENCH_recovery.json", id)
		}
	}
}

// TestRecoveryReferencesTrainedOnce: the fault-free references are
// memoised for the package run. It comes last in this file, so it sees
// every reference the grid tests trained; it then asks for all six
// (workload, mode) references, and no more than six may ever have been
// trained.
func TestRecoveryReferencesTrainedOnce(t *testing.T) {
	fx, err := recoveryFixture(gridOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range fx.workloads {
		for _, mode := range []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel} {
			if _, err := fx.reference(w, mode); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := referencesTrained.Load(); n > 6 {
		t.Errorf("%d fault-free references trained, want at most 6", n)
	}
}
