package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// gpuResident is the no-offload reference: weights, gradients and
// optimizer state all live in GPU memory and the update is a single
// HBM-bandwidth-bound kernel. It is the fastest design whenever it fits —
// the reproduction's point is the crossover once state exceeds device
// memory. Evaluated analytically (no event simulation needed: a single
// device-local streaming kernel).
type gpuResident struct {
	cfg Config
}

// Name implements System.
func (s gpuResident) Name() string { return "gpu-resident" }

// trainingBytesPerParam is the standard mixed-precision training footprint
// accounting (Rajbhandari et al.): FP16 weights (2) + FP16 gradients (2)
// + FP32 master weights, momentum and variance (12) = 16 bytes/param for
// Adam-family optimizers; fewer state words shrink it accordingly.
// Fractional because quantized state carries amortised block scales.
func (s gpuResident) trainingBytesPerParam() float64 {
	spec := s.cfg.Spec()
	return float64(spec.GradBytes+spec.WeightOutBytes) + spec.ResidentBytes()
}

// Run implements System.
func (s gpuResident) Run() (*Report, error) {
	cfg := s.cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := cfg.Model.Params

	r := &Report{
		System:     s.Name(),
		Model:      cfg.Model.Name,
		Optimizer:  cfg.Optimizer.String(),
		Precision:  cfg.Precision.String(),
		Params:     params,
		TotalUnits: cfg.TotalUnits(),
	}

	// Feasibility: training footprint plus a 20% activation/workspace
	// allowance must fit device memory.
	needBytes := s.trainingBytesPerParam() * float64(params) * 1.2
	haveBytes := cfg.GPU.MemoryGB * units.BytesPerGB
	if needBytes > haveBytes {
		r.Feasible = false
		r.Notes = fmt.Sprintf("needs %.1f GB, GPU has %.0f GB", needBytes/units.BytesPerGB, cfg.GPU.MemoryGB)
		r.CheckpointPolicy = cfg.Checkpoint.String()
		return r, nil
	}
	r.Feasible = true

	a := traffic("gpuresident", cfg)
	r.OptStepTime = cfg.GPU.KernelTime(a.GPUOps, a.HBMBytes)
	r.SimTime = r.OptStepTime
	r.SimUnits = r.TotalUnits
	r.HBMBytes = int64(a.HBMBytes)
	r.WAF = 1
	// Analytic system: no event engine, so the single fused-kernel phase
	// is emitted as one synthetic span covering the whole step.
	if cfg.Trace != nil {
		cfg.Trace.Span(phaseTrack, "update", 0, r.OptStepTime)
	}

	evalEnergy(r, a)
	cfg.endToEnd(r)
	// Sanity: the reference never reports a zero step.
	if r.OptStepTime <= 0 {
		r.OptStepTime = sim.Time(1)
	}
	accountFaultsAnalytic(cfg, r, int64(s.trainingBytesPerParam()*float64(params)))
	return r, nil
}
