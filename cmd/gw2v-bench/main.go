// Command gw2v-bench regenerates the paper's tables and figures on the
// simulated cluster (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	gw2v-bench -experiment all -scale tiny
//	gw2v-bench -experiment fig6 -scale small -hosts 32
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/harness"
	"graphword2vec/internal/synth"
)

// experiment is one entry of the dispatch table. run returns the rows
// -bench-json records, or nil for an experiment that only prints.
type experiment struct {
	name string
	// ids are the -experiment ids that select the entry; nil means
	// name alone. table2 and table3 share one set of training runs.
	ids []string
	// recordHosts adds opts.Hosts to the -bench-json envelope.
	recordHosts bool
	run         func(harness.Options) (rows any, err error)
}

func (e experiment) selectors() []string {
	if e.ids == nil {
		return []string{e.name}
	}
	return e.ids
}

var experiments = []experiment{
	{name: "table1", run: func(o harness.Options) (any, error) { _, err := harness.Table1(o); return nil, err }},
	{name: "table2-3", ids: []string{"table2", "table3"}, run: func(o harness.Options) (any, error) { _, err := harness.Table23(o); return nil, err }},
	{name: "fig6", run: func(o harness.Options) (any, error) { _, err := harness.Fig6(o); return nil, err }},
	{name: "fig7", run: func(o harness.Options) (any, error) { _, _, err := harness.Fig7(o); return nil, err }},
	{name: "fig8", run: func(o harness.Options) (any, error) { _, err := harness.Fig8(o); return nil, err }},
	{name: "fig9", run: func(o harness.Options) (any, error) { _, err := harness.Fig9(o); return nil, err }},
	{name: "ablation-combiners", run: func(o harness.Options) (any, error) { _, err := harness.AblationCombiners(o); return nil, err }},
	{name: "ablation-sparsity", run: func(o harness.Options) (any, error) { _, err := harness.AblationSparsity(o); return nil, err }},
	{name: "ablation-threads", run: func(o harness.Options) (any, error) { _, err := harness.AblationIntraHost(o, nil); return nil, err }},
	{name: "graph-sync", run: func(o harness.Options) (any, error) { _, err := harness.GraphSync(o); return nil, err }},
	{name: "comm-volume", recordHosts: true, run: func(o harness.Options) (any, error) { return harness.CommVolume(o) }},
	{name: "recovery-grid", run: func(o harness.Options) (any, error) { return harness.RecoveryGrid(o, harness.RecoveryCases()) }},
}

// experimentIDs lists every id -experiment accepts besides "all".
func experimentIDs(table []experiment) []string {
	var ids []string
	for _, e := range table {
		ids = append(ids, e.selectors()...)
	}
	return ids
}

// selectExperiments resolves a comma-separated -experiment value, or
// "all", to the table entries it names, in table order.
func selectExperiments(table []experiment, spec string) ([]experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	delete(want, "all")
	var sel []experiment
	for _, e := range table {
		picked := all
		for _, id := range e.selectors() {
			picked = picked || want[id]
			delete(want, id)
		}
		if picked {
			sel = append(sel, e)
		}
	}
	for id := range want {
		return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", id, strings.Join(experimentIDs(table), ", "))
	}
	return sel, nil
}

// benchDoc is the -bench-json envelope.
type benchDoc struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Hosts      int    `json:"hosts,omitempty"`
	Seed       uint64 `json:"seed"`
	Rows       any    `json:"rows"`
}

// runExperiments selects from table by spec, then runs each selection
// in table order. An unknown id fails before any experiment starts.
// When benchOut is set, each recording experiment's rows are written
// there as JSON.
func runExperiments(table []experiment, spec string, opts harness.Options, benchOut string) error {
	sel, err := selectExperiments(table, spec)
	if err != nil {
		return err
	}
	for _, e := range sel {
		start := time.Now()
		fmt.Printf("=== %s ===\n", e.name)
		rows, err := e.run(opts)
		if err == nil && rows != nil && benchOut != "" {
			doc := benchDoc{Experiment: e.name, Scale: opts.Scale.String(), Seed: opts.Seed, Rows: rows}
			if e.recordHosts {
				doc.Hosts = opts.Hosts
			}
			err = writeJSON(benchOut, doc)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("(%s took %s)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gw2v-bench: ")
	var (
		expStr   = flag.String("experiment", "all", "experiment id(s), comma-separated, or 'all': "+strings.Join(experimentIDs(experiments), ", "))
		scaleStr = flag.String("scale", "tiny", "dataset scale: tiny, small, or full")
		hosts    = flag.Int("hosts", 0, "cluster size for Tables 2-3 / Figures 6-7 (0 = 32)")
		epochs   = flag.Int("epochs", 0, "training epochs (0 = 16)")
		dim      = flag.Int("dim", 0, "embedding dimensionality (0 = scale default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		benchOut = flag.String("bench-json", "", "write the rows of comm-volume or recovery-grid as JSON to this path (e.g. BENCH_comm.json, BENCH_recovery.json); when several run, the last writer wins")
		profiles = cliutil.RegisterProfiles(flag.CommandLine)
	)
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
	}()
	// log.Fatalf would skip the deferred stop (os.Exit), losing the
	// profiles of exactly the runs one wants to inspect — flush first.
	fatalf := func(format string, v ...interface{}) {
		if perr := stopProfiles(); perr != nil {
			log.Print(perr)
		}
		log.Fatalf(format, v...)
	}

	scale, err := synth.ParseScale(*scaleStr)
	if err != nil {
		fatalf("%v", err)
	}
	opts := harness.Defaults(scale)
	opts.Hosts = *hosts
	opts.Epochs = *epochs
	opts.Dim = *dim
	opts.Seed = *seed
	opts.Out = os.Stdout
	opts = opts.WithDefaults()

	if err := runExperiments(experiments, *expStr, opts, *benchOut); err != nil {
		fatalf("%v", err)
	}
}
