// Command perfbench is the repository's end-to-end benchmark: it trains
// a model over a loopback TCP mesh, gathers it, saves and reloads it,
// indexes it and serves it, and reports what a user waits for (--trace 0)
// or where the time went layer by layer (--trace 1).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload text-w2v --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it carries
// diagnostics that are for reading results only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (text-w2v, graph-durable, serve-reload)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Int("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", "perfbench-run", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	res, diag, err := run(w, *seed, time.Duration(*secs)*time.Second, *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"diagnostic": diag}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
