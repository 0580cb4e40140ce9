package main

import (
	"testing"

	"graphword2vec/internal/harness"
	"graphword2vec/internal/synth"
)

// TestUnknownExperimentRunsNothing: a misspelled id next to a valid one
// must fail before the valid one starts.
func TestUnknownExperimentRunsNothing(t *testing.T) {
	started := 0
	stub := func(harness.Options) (any, error) { started++; return nil, nil }
	table := []experiment{{name: "fault-grid", run: stub}, {name: "chaos-grid", run: stub}}
	err := runExperiments(table, "fault-grid,chaos-gird", harness.Defaults(synth.ScaleTiny), "")
	if err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	if started != 0 {
		t.Fatalf("%d experiments started before the unknown id was rejected", started)
	}
	if _, err := selectExperiments(experiments, "fault-grid,chaos-gird"); err == nil {
		t.Fatal("dispatch table accepts an unknown id")
	}
}

// TestTable23SharesOneRun: table2 and table3 come from the same training
// runs, so selecting either or both runs them once.
func TestTable23SharesOneRun(t *testing.T) {
	for _, spec := range []string{"table2", "table3", "table2,table3"} {
		sel, err := selectExperiments(experiments, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel) != 1 || sel[0].name != "table2-3" {
			t.Errorf("%q selects %d entries, want the one table2-3 run", spec, len(sel))
		}
	}
}

// TestAllSelectsEveryEntry: "all" runs the whole table, in table order.
func TestAllSelectsEveryEntry(t *testing.T) {
	sel, err := selectExperiments(experiments, "all")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(experiments) {
		t.Fatalf("all selects %d of %d entries", len(sel), len(experiments))
	}
	for i := range sel {
		if sel[i].name != experiments[i].name {
			t.Errorf("entry %d is %s, want %s", i, sel[i].name, experiments[i].name)
		}
	}
}
