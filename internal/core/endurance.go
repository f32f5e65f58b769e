package core

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// EnduranceReport answers the first question anyone asks about in-storage
// training: how long before the update stream wears the flash out? Every
// step programs the full resident state once (times WAF), so lifetime is
// set by cell endurance, device capacity, and the state footprint.
type EnduranceReport struct {
	Model     string
	Optimizer string
	Cell      nand.CellType

	// StateBytes is the resident optimizer state footprint.
	StateBytes int64
	// DeviceBytes is the configured device's capacity in this cell mode.
	DeviceBytes int64
	// Fits is false when the state does not fit the device at all.
	Fits bool

	// MeasuredWAF comes from a steady-state multi-step simulation of the
	// update stream on a scaled-down device with identical occupancy.
	MeasuredWAF float64
	// ProgramBytesPerStep = StateBytes × MeasuredWAF.
	ProgramBytesPerStep float64

	// LifetimeSteps is how many optimizer steps the device survives with
	// ideal wear levelling.
	LifetimeSteps float64
	// LifetimeDays converts steps to wall time using the end-to-end step
	// latency of the OptimStore system on this configuration.
	LifetimeDays float64
	// StepTime is the end-to-end step time used for LifetimeDays.
	StepTime sim.Time
}

// RunEndurance evaluates flash lifetime for a configuration with the state
// region in the given cell mode. steps sets the length of the steady-state
// WAF measurement (≥2; more steps tighten the estimate).
func RunEndurance(cfg Config, cell nand.CellType, steps int) (*EnduranceReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if steps < 2 {
		return nil, fmt.Errorf("core: endurance needs >=2 steps, got %d", steps)
	}

	rep := &EnduranceReport{
		Model:     cfg.Model.Name,
		Optimizer: cfg.Optimizer.String(),
		Cell:      cell,
	}
	var geo ssd.Geometry
	geo, rep.StateBytes, rep.Fits = cellDevice(cfg, cell)
	rep.DeviceBytes = geo.TotalBytes()
	if !rep.Fits {
		return rep, nil
	}

	// Steady-state WAF: drive a scaled-down device of the same cell type
	// and over-provisioning through full update sweeps.
	waf, err := measureUpdateWAF(cell, cfg.SSD.OverProvision, steps)
	if err != nil {
		return nil, err
	}
	rep.MeasuredWAF = waf
	rep.ProgramBytesPerStep = float64(rep.StateBytes) * waf

	// Lifetime: block erases per step spread across the whole device.
	rep.LifetimeSteps, _ = AnalyticLifetime(cfg, cell, waf)

	// Wall-clock lifetime at this configuration's training cadence.
	sys, err := NewSystem("optimstore", cfg)
	if err != nil {
		return nil, err
	}
	r, err := sys.Run()
	if err != nil {
		return nil, err
	}
	rep.StepTime = r.StepTime
	stepsPerDay := 86400.0 / r.StepTime.Seconds()
	rep.LifetimeDays = rep.LifetimeSteps / stepsPerDay
	return rep, nil
}

// measureUpdateWAF runs `steps` full update sweeps over a small device at
// (1 − overProvision) occupancy and reports the write-amplification factor
// of everything after the first sweep (the first fills the log cold).
func measureUpdateWAF(cell nand.CellType, overProvision float64, steps int) (float64, error) {
	n := nand.ParamsFor(cell)
	n.BlocksPerPlane = 16
	n.PagesPerBlock = 32
	n.PlanesPerDie = 2
	devCfg := ssd.Config{
		Channels:        2,
		DiesPerChannel:  2,
		Nand:            n,
		OverProvision:   overProvision,
		GCLowWater:      2,
		GCHighWater:     3,
		CachePages:      64,
		DRAMPageLatency: 2 * sim.Microsecond,
		CmdLatency:      5 * sim.Microsecond,
	}
	if err := devCfg.Validate(); err != nil {
		return 0, err
	}
	eng := sim.NewEngine()
	dev := ssd.NewDevice(eng, devCfg)
	pages := dev.FTL().LogicalPages()
	for lpa := int64(0); lpa < pages; lpa++ {
		dev.Preload(lpa)
	}

	var baseHost, baseGC uint64
	for s := 0; s < steps; s++ {
		for lpa := int64(0); lpa < pages; lpa++ {
			dev.ProgramUpdate(lpa, nil)
		}
		wedged := true
		dev.Drain(func() { wedged = false })
		eng.Run()
		if wedged {
			return 0, fmt.Errorf("core: WAF measurement wedged at step %d", s)
		}
		if s == 0 {
			baseHost = dev.FTL().HostProgrammed()
			baseGC = dev.FTL().GCProgrammed()
		}
	}
	host := dev.FTL().HostProgrammed() - baseHost
	gc := dev.FTL().GCProgrammed() - baseGC
	if host == 0 {
		return 1, nil
	}
	return float64(host+gc) / float64(host), nil
}
