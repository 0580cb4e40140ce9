package harness

import (
	"fmt"
	"text/tabwriter"

	"graphword2vec/internal/cliutil"
	"graphword2vec/internal/core"
	"graphword2vec/internal/gluon"
)

// Fig8Hosts is the paper's strong-scaling host sweep; sync frequency
// follows the rule of thumb 1(1), 2(3), 4(6), 8(12), 16(24), 32(48),
// 64(96).
var Fig8Hosts = []int{1, 2, 4, 8, 16, 32, 64}

// Fig9Hosts is the subset shown in the time-breakdown figure.
var Fig9Hosts = []int{2, 8, 32}

// ScalingModes are the three communication variants compared.
var ScalingModes = []gluon.Mode{gluon.RepModelNaive, gluon.RepModelOpt, gluon.PullModel}

// Fig8Point is one (dataset, mode, hosts) strong-scaling measurement.
type Fig8Point struct {
	Dataset string
	Mode    gluon.Mode
	Hosts   int
	// SyncFrequency is the rounds-per-epoch used (rule of thumb).
	SyncFrequency int
	// TotalSeconds is the simulated time for a full Epochs-epoch run.
	TotalSeconds float64
	// ComputeSeconds / CommSeconds split TotalSeconds.
	ComputeSeconds float64
	CommSeconds    float64
	// TotalBytes is the run's extrapolated communication volume.
	TotalBytes float64
}

// Speedup returns the ratio against a 1-host reference time.
func (p Fig8Point) Speedup(oneHostSeconds float64) float64 {
	if p.TotalSeconds == 0 {
		return 0
	}
	return oneHostSeconds / p.TotalSeconds
}

// Fig8 regenerates the strong-scaling figure: simulated total training
// time across host counts for the three communication schemes on all
// three datasets. Measurements come from steady-state probes (see
// probeDistributed); the paper's qualitative result is that all variants
// scale to 32 hosts with RepModel-Opt fastest.
func Fig8(opts Options) ([]Fig8Point, error) {
	return scalingSweep(opts, Fig8Hosts, "Figure 8: Strong scaling — simulated time (16-epoch run)")
}

// Fig9 regenerates the computation/communication breakdown with total
// communication volume labels at 2, 8 and 32 hosts.
func Fig9(opts Options) ([]Fig8Point, error) {
	return scalingSweep(opts, Fig9Hosts, "Figure 9: Compute/communication breakdown and volume")
}

func scalingSweep(opts Options, hostCounts []int, title string) ([]Fig8Point, error) {
	opts = opts.WithDefaults()
	datasets, err := LoadAll(opts)
	if err != nil {
		return nil, err
	}
	var points []Fig8Point
	for _, d := range datasets {
		for _, mode := range ScalingModes {
			for _, hosts := range hostCounts {
				probe, err := probeDistributed(d, opts, hosts, mode)
				if err != nil {
					return nil, fmt.Errorf("harness: probe %s/%v/%d: %w", d.Name, mode, hosts, err)
				}
				points = append(points, Fig8Point{
					Dataset:        d.Name,
					Mode:           mode,
					Hosts:          hosts,
					SyncFrequency:  core.SyncFrequencyRule(hosts),
					TotalSeconds:   probe.TotalSeconds(opts.Epochs),
					ComputeSeconds: float64(opts.Epochs) * probe.ComputeSecondsPerEpoch,
					CommSeconds:    float64(opts.Epochs) * probe.CommSecondsPerEpoch,
					TotalBytes:     probe.TotalBytes(opts.Epochs),
				})
			}
		}
	}

	w := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s (scale=%s, epochs=%d)\n", title, opts.Scale, opts.Epochs)
	fmt.Fprintln(w, "Dataset\tVariant\tHosts(S)\tCompute\tComm\tTotal\tVolume")
	for _, p := range points {
		fmt.Fprintf(w, "%s\t%s\t%d(%d)\t%s\t%s\t%s\t%s\n",
			p.Dataset, p.Mode, p.Hosts, p.SyncFrequency,
			fmtDuration(p.ComputeSeconds), fmtDuration(p.CommSeconds),
			fmtDuration(p.TotalSeconds), cliutil.FormatBytes(p.TotalBytes))
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return points, nil
}
