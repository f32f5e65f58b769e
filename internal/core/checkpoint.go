package core

import (
	"fmt"

	"repro/internal/sim"
)

// CheckpointReport compares snapshotting the optimizer state for fault
// tolerance — a first-order operational concern for week-long training
// runs, and a place where state residency changes the answer qualitatively:
//
//   - host streaming: the resident state leaves the SSD over the channel
//     buses and PCIe to host checkpoint storage (what an offload runtime
//     does today);
//   - in-storage copy: the device snapshots the state region internally
//     with plane-local copyback (read + program per page, no bus or PCIe
//     traffic), at the cost of reserving a second copy's capacity.
type CheckpointReport struct {
	Model      string
	StateBytes int64

	// HostStreamTime is the PCIe-bound external checkpoint.
	HostStreamTime sim.Time
	// InStorageCopyTime is the plane-bound internal snapshot.
	InStorageCopyTime sim.Time
	// Speedup = HostStreamTime / InStorageCopyTime.
	Speedup float64

	// CapacityNeeded is the device capacity an internal snapshot requires
	// (two copies of the state), and CapacityOK whether the configured
	// device has it.
	CapacityNeeded int64
	CapacityOK     bool
}

// Checkpoint evaluates both strategies analytically: checkpointing is a
// pure streaming problem, so closed forms are exact.
func Checkpoint(cfg Config) (*CheckpointReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// External stream: reads overlap the PCIe transfer; PCIe is the
	// narrowest stage (internal read 32 GB/s > buses 9.6 GB/s > PCIe).
	// Internal copy: plane-local copyback — each page pays tR + tPROG on
	// its plane, all planes in parallel. Bandwidth units are decimal end
	// to end; binary units appear only in capacity math
	// (Geometry().TotalBytes() below). Both closed forms live in
	// checkpointTimes, shared with the fault accounting.
	hostStream, inStorage, state := checkpointTimes(cfg)
	r := &CheckpointReport{Model: cfg.Model.Name, StateBytes: state}
	r.HostStreamTime = hostStream
	r.InStorageCopyTime = inStorage

	if r.InStorageCopyTime > 0 {
		r.Speedup = float64(r.HostStreamTime) / float64(r.InStorageCopyTime)
	}

	// Analytic evaluation: emit both strategies as synthetic spans so a
	// trace shows the external stream and the internal copyback side by
	// side on the phase track.
	if cfg.Trace != nil {
		cfg.Trace.Span(phaseTrack, "ckpt/host-stream", 0, r.HostStreamTime)
		cfg.Trace.Span(phaseTrack, "ckpt/in-storage-copy", 0, r.InStorageCopyTime)
	}

	// Capacity: the snapshot needs a second full copy resident.
	r.CapacityNeeded = 2 * state
	r.CapacityOK = float64(r.CapacityNeeded) <= float64(cfg.SSD.Geometry().TotalBytes())*(1-cfg.SSD.OverProvision)
	return r, nil
}

// String renders a one-line summary.
func (r *CheckpointReport) String() string {
	return fmt.Sprintf("checkpoint %s: host-stream %v, in-storage %v (%.1fx), capacity-ok=%v",
		r.Model, r.HostStreamTime, r.InStorageCopyTime, r.Speedup, r.CapacityOK)
}
