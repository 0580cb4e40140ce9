package core

import (
	"graphword2vec/internal/gluon"
	"graphword2vec/internal/model"
	"graphword2vec/internal/sgns"
)

// ModelView is the read-only canonical model handed to OnEpoch callbacks
// and returned by Run.
type ModelView struct {
	// Model is the canonical model assembled from the master proxies.
	Model *model.Model
}

// EpochResult carries per-epoch measurements.
type EpochResult struct {
	// Epoch is the 0-based epoch index.
	Epoch int
	// Alpha is the learning rate used this epoch.
	Alpha float32
	// Comm aggregates all hosts' communication counters for the epoch.
	Comm gluon.Stats
	// Train aggregates the epoch's SGNS counters across hosts.
	Train sgns.Stats
}

// Result is the outcome of a full Run.
type Result struct {
	// Hosts is the simulated cluster size the run used.
	Hosts int
	// Canonical is the final model (master-proxy assembly).
	Canonical *model.Model
	// Epochs holds one entry per epoch in order.
	Epochs []EpochResult
	// Comm is the whole run's communication total.
	Comm gluon.Stats
	// Train is the whole run's SGNS total.
	Train sgns.Stats
	// ComputeSeconds[h] is host h's total measured compute time.
	ComputeSeconds []float64
	// CriticalComputeSeconds is the run's BSP compute critical path.
	CriticalComputeSeconds float64
	// SyncSeconds[h] is host h's total critical-path synchronisation
	// time: per round the launch, the longest gate-blocked wait and the
	// join (see EngineResult.SyncSeconds).
	SyncSeconds []float64
	// CriticalSyncSeconds is the run's synchronisation critical path:
	// the sum over rounds of the slowest host's sync time.
	CriticalSyncSeconds float64
	// OverlapSeconds[h] is host h's total sync time hidden behind
	// overlapped compute (zero when Config.SyncOverlap is off).
	OverlapSeconds []float64
}

// CommSeconds returns the modelled communication time of the run: traffic
// is symmetric across hosts in the BSP schemes, so each host's NIC moves
// about (sent+received)/hosts = 2·total/hosts bytes, in parallel with the
// other hosts' NICs.
func (r *Result) CommSeconds(cm gluon.CostModel) float64 {
	hosts := int64(r.Hosts)
	if hosts < 1 {
		hosts = 1
	}
	return cm.CommSeconds(2*r.Comm.TotalBytes()/hosts, 2*r.Comm.Messages/hosts)
}

// SimulatedSeconds returns the modelled wall-clock time of the run on a
// real cluster: the BSP compute critical path, with each host's serial
// compute divided by modeledThreads (intra-host Hogwild parallelism with
// efficiency eff ∈ (0,1]), plus per-host communication time from the
// cost model.
func (r *Result) SimulatedSeconds(cm gluon.CostModel, modeledThreads int, eff float64) float64 {
	if modeledThreads < 1 {
		modeledThreads = 1
	}
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	compute := r.CriticalComputeSeconds / (float64(modeledThreads) * eff)
	return compute + r.CommSeconds(cm)
}
