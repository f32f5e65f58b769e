package fault

import "repro/internal/sim"

// Costs are the device-wide analytic quantities checkpoint and restore
// accounting is built from. The core layer derives them from the system
// configuration (optimizer-state footprint, link bandwidth, die-internal
// copy bandwidth, whole-device scan time).
type Costs struct {
	// HostStream is the time to move the full optimizer state over the
	// host link (out for a checkpoint, back in for a restore).
	HostStream sim.Time
	// InStorage is the time to copy the full optimizer state die-
	// internally (ODP copyback, all planes in parallel).
	InStorage sim.Time
	// Scan is the full-device metadata scan that replays the durable map
	// after power loss (the OOB scan of ssd.Recover).
	Scan sim.Time
	// Dies is the number of NAND dies; a die failure loses 1/Dies of
	// device-resident state.
	Dies int
}

// CheckpointTime is the cost of taking one checkpoint under the policy.
func (c Costs) CheckpointTime(p Policy) sim.Time {
	switch p {
	case CheckpointInPlace:
		return c.InStorage
	case CheckpointHostPull:
		return c.HostStream
	}
	return 0
}

// RestoreTime is the cost of coming back from one fault of kind k under
// the policy, excluding redone work (the caller prices recomputation from
// the crash position separately).
func (c Costs) RestoreTime(p Policy, k Kind) sim.Time {
	switch k {
	case PowerLoss:
		// Replay the durable map, then re-materialize optimizer state from
		// the checkpoint. Without a device checkpoint the host's master
		// copy streams back over the link.
		switch p {
		case CheckpointInPlace:
			return c.Scan + c.InStorage
		case CheckpointHostPull:
			return c.Scan + c.HostStream
		default:
			return c.Scan + c.HostStream
		}
	case DieFailure:
		// The surviving dies replay locally; the failed die's shard
		// (1/Dies of the state) must come from somewhere off-die.
		if c.Dies <= 0 {
			return c.Scan + c.HostStream
		}
		shard := 1 / float64(c.Dies)
		switch p {
		case CheckpointInPlace:
			// The failed die's checkpoint shard died with it: survivors
			// restore in-storage, the lost shard streams from the host.
			return c.Scan + c.InStorage.Scale(1-shard) + c.HostStream.Scale(shard)
		default:
			// Host-pull checkpoints (and the no-checkpoint fallback) hold
			// the full state off-device; only the lost shard re-streams.
			return c.Scan + c.HostStream.Scale(shard)
		}
	}
	// ECC exhaustion is non-terminal: its cost (retry latency, relocation,
	// retirement WAF) lands organically in the simulated run.
	return 0
}
