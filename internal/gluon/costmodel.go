package gluon

// CostModel converts counted communication (bytes, messages) into
// simulated wall-clock time. The simulated cluster executes every
// algorithmic code path for real but runs on one machine, so network time
// is *modelled* rather than measured: time = volume/bandwidth +
// messages·latency. Defaults follow the paper's testbed (§5.1): a 56 Gb/s
// InfiniBand fabric, for which we assume a 2 µs per-message latency.
//
// The model deliberately charges the whole cluster's traffic serially
// against one fabric (bisection-bandwidth view); what matters for the
// reproduced figures is the *relative* volume of the three communication
// schemes, which comes from exact byte counts.
type CostModel struct {
	// BandwidthBytesPerSec is the fabric bandwidth.
	BandwidthBytesPerSec float64
	// LatencySec is the per-message overhead.
	LatencySec float64
}

// DefaultCostModel models the paper's 56 Gb/s InfiniBand cluster.
func DefaultCostModel() CostModel {
	return CostModel{
		BandwidthBytesPerSec: 56e9 / 8,
		LatencySec:           2e-6,
	}
}

// CommSeconds returns the modelled time to move the given traffic.
func (c CostModel) CommSeconds(bytes, messages int64) float64 {
	if c.BandwidthBytesPerSec <= 0 {
		return 0
	}
	return float64(bytes)/c.BandwidthBytesPerSec + float64(messages)*c.LatencySec
}
