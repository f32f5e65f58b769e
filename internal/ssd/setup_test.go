package ssd_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// gpt13b is the GPT-13B paper default at the given simulation window.
func gpt13b(tb testing.TB, units int64) core.Config {
	tb.Helper()
	m, err := dnn.ByName("GPT-13B")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig(m)
	cfg.MaxSimUnits = units
	return cfg
}

// buildDevice repeats the set-up every event-driven system performs
// before its first event: engine, device, layout, plane mapper and the
// preload loop. It returns the number of pages preloaded.
func buildDevice(tb testing.TB, cfg core.Config) int64 {
	dev := ssd.NewDevice(sim.NewEngine(), cfg.SSD)
	lay, err := layout.New(dev.Geometry(), cfg.Comps(), cfg.SimUnits(), cfg.Layout)
	if err != nil {
		tb.Fatal(err)
	}
	dev.SetPlaneMapper(lay.PlaneMapper())
	for lpa := int64(0); lpa < lay.LogicalPages(); lpa++ {
		dev.Preload(lpa)
	}
	return lay.LogicalPages()
}

// setupAlloc returns the bytes one device set-up allocates (the least of
// three builds, so a stray background allocation cannot inflate it) and
// the pages it preloads.
func setupAlloc(t *testing.T, units int64) (bytes uint64, pages int64) {
	cfg := gpt13b(t, units)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		pages = buildDevice(t, cfg)
		runtime.ReadMemStats(&ms)
		if b := ms.TotalAlloc - before; i == 0 || b < bytes {
			bytes = b
		}
	}
	return bytes, pages
}

// TestSetupAllocScalesWithWindow pins device set-up to the simulated
// window. The translation maps grow with the pages a run writes, so a
// small window on the default 128-plane device must stay small (a map
// chunk per plane pair cost 8.85 MB here), and each page the window adds
// may cost only a few map entries' worth of bytes.
func TestSetupAllocScalesWithWindow(t *testing.T) {
	const (
		maxSmallBytes = 1 << 20 // at 128 units
		maxPerPage    = 32      // bytes per page added from 128 to 16384 units
	)
	small, smallPages := setupAlloc(t, 128)
	large, largePages := setupAlloc(t, 16384)
	t.Logf("set-up: %d B for %d pages, %d B for %d pages", small, smallPages, large, largePages)
	if small > maxSmallBytes {
		t.Errorf("128-unit set-up allocates %d B, want <= %d", small, maxSmallBytes)
	}
	if largePages <= smallPages {
		t.Fatalf("window did not grow: %d -> %d pages", smallPages, largePages)
	}
	per := float64(large-min(large, small)) / float64(largePages-smallPages)
	if per > maxPerPage {
		t.Errorf("set-up grows %.1f B per added page, want <= %d", per, maxPerPage)
	}
}

// TestDeviceBuildIndependentOfBlockCount pins the device's construction
// to its topology: the FTL and the dies keep state only for blocks a run
// opens, so building the 1024-block default drive allocates what building
// a 64-block one does (exactly without the race detector, within a few
// hundred bytes with it), not 16 B or more per added block.
func TestDeviceBuildIndependentOfBlockCount(t *testing.T) {
	build := func(blocks int) uint64 {
		cfg := ssd.DefaultConfig()
		cfg.Nand.BlocksPerPlane = blocks
		var ms runtime.MemStats
		var least uint64
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			ssd.NewDevice(sim.NewEngine(), cfg)
			runtime.ReadMemStats(&ms)
			if b := ms.TotalAlloc - before; i == 0 || b < least {
				least = b
			}
		}
		return least
	}
	added := uint64(ssd.DefaultConfig().Geometry().Planes() * (1024 - 64))
	if small, full := build(64), build(1024); full > small+added {
		t.Fatalf("building the 1024-block drive allocates %d B, the 64-block one %d B: "+
			"more than a byte per added block", full, small)
	}
}

// BenchmarkDeviceSetup measures one device set-up at a small and at the
// paper-scale window.
func BenchmarkDeviceSetup(b *testing.B) {
	for _, bc := range []struct {
		name  string
		units int64
	}{{"units=128", 128}, {"units=16384", 16384}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := gpt13b(b, bc.units)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildDevice(b, cfg)
			}
		})
	}
}
