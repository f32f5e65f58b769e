package core

import (
	"testing"

	"repro/internal/dnn"
	"repro/internal/units"
)

// TestCheckpointBandwidthDecimal pins the MB/s → GB/s conversion Checkpoint
// uses to pick its streaming bottleneck. Bandwidths are decimal end to end:
// aggregate channel MB/s divided by exactly 1000 — never 1024 — to compare
// against the PCIe GB/s rating. PR 1 fixed precisely this class of bug, so
// this test is the regression pin for it.
func TestCheckpointBandwidthDecimal(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())

	mb := cfg.SSD.ChannelMBps()
	wantMB := units.MBps(cfg.SSD.Nand.BusMBps * cfg.SSD.Channels)
	//simlint:allow floateq integer-valued rates convert exactly
	if mb != wantMB {
		t.Fatalf("ChannelMBps = %v, want %v", mb, wantMB)
	}

	gb := mb.GBps()
	//simlint:allow unitconv,floateq this test pins the decimal factor itself
	if float64(gb) != float64(mb)/1000 {
		t.Fatalf("GBps = %v, want decimal conversion of %v MB/s", gb, mb)
	}
	//simlint:allow unitconv,floateq guard against the binary-division bug
	if float64(gb) == float64(mb)/1024 {
		t.Fatalf("GBps = %v: MB/s was divided by 1024, not 1000", gb)
	}

	// The stream time must come from the narrower of PCIe and the channel
	// buses, in those decimal units, over the exact state byte count.
	r, err := Checkpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bottleneck := cfg.Link.EffectiveGBps()
	if gb < bottleneck {
		bottleneck = gb
	}
	if want := bottleneck.TransferTimeF(float64(r.StateBytes)); r.HostStreamTime != want {
		t.Fatalf("HostStreamTime = %v, want %v (bottleneck %v GB/s)",
			r.HostStreamTime, want, bottleneck)
	}
}

// TestCheckpointCapacityBinary pins the other side of the convention:
// capacity math is binary, flowing through Geometry().TotalBytes() from the
// 16 KiB page size — decimal 1e9/1e12 factors must never appear in it.
func TestCheckpointCapacityBinary(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	n := cfg.SSD.Nand

	planes := int64(cfg.SSD.Channels) * int64(cfg.SSD.DiesPerChannel) * int64(n.PlanesPerDie)
	want := planes * int64(n.BlocksPerPlane) * int64(n.PagesPerBlock) * int64(n.PageSize)

	if got := cfg.SSD.Geometry().TotalBytes(); got != want || want != 512*int64(units.GiB) {
		t.Fatalf("device = %d B, want %d (binary product of the topology: 512 GiB)", got, want)
	}
	// Binary capacity: an exact multiple of the KiB-aligned page size.
	if units.Bytes(want)%units.Bytes(n.PageSize) != 0 || int64(n.PageSize)%int64(units.KiB) != 0 {
		t.Fatalf("capacity %d not aligned to the %d-byte page", want, n.PageSize)
	}

	// CapacityOK must be judged against that binary figure (scaled by
	// over-provisioning), not a decimal reinterpretation of it.
	r, err := Checkpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOK := float64(r.CapacityNeeded) <= float64(want)*(1-cfg.SSD.OverProvision)
	if r.CapacityOK != wantOK {
		t.Fatalf("CapacityOK = %v, want %v against %d-byte device", r.CapacityOK, wantOK, want)
	}
}
