package ssd

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func newTestFTL() *FTL {
	g := testGeo()
	return NewFTL(g, g.TotalPages()*3/4)
}

func TestFTLAllocSequential(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	var prev PPA
	for i := 0; i < g.PagesPerBlock*2; i++ {
		ppa := f.AllocPage(0)
		if i > 0 {
			if g.Linear(ppa) != g.Linear(prev)+1 && ppa.Block == prev.Block {
				t.Fatalf("non-sequential alloc: %v after %v", ppa, prev)
			}
		}
		prev = ppa
	}
	// Two blocks consumed.
	if f.FreeBlocks(0) != g.BlocksPerPlane-2 {
		t.Fatalf("free = %d", f.FreeBlocks(0))
	}
	if !f.HasFullBlock(0) {
		t.Fatal("full blocks not tracked")
	}
}

func TestFTLLookupUnmapped(t *testing.T) {
	f := newTestFTL()
	if _, ok := f.Lookup(5); ok {
		t.Fatal("unmapped lpa resolved")
	}
}

func TestFTLCommitAndOverwrite(t *testing.T) {
	f := newTestFTL()
	p1 := f.AllocPage(0)
	f.CommitWrite(7, p1, false)
	got, ok := f.Lookup(7)
	if !ok || got != p1 {
		t.Fatalf("lookup = %v %v", got, ok)
	}
	if f.ValidCount(0, p1.Block) != 1 {
		t.Fatal("valid count after commit")
	}
	p2 := f.AllocPage(0)
	f.CommitWrite(7, p2, false)
	if f.ValidCount(0, p1.Block) != 1 { // p1 and p2 share block 0: -1 +1
		t.Fatalf("valid count after overwrite = %d", f.ValidCount(0, p1.Block))
	}
	got, _ = f.Lookup(7)
	if got != p2 {
		t.Fatal("overwrite did not remap")
	}
	if err := f.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLInvalidate(t *testing.T) {
	f := newTestFTL()
	ppa := f.AllocPage(0)
	f.CommitWrite(3, ppa, false)
	f.Invalidate(3)
	if _, ok := f.Lookup(3); ok {
		t.Fatal("lookup after invalidate")
	}
	if f.ValidCount(0, ppa.Block) != 0 {
		t.Fatal("valid count after invalidate")
	}
	f.Invalidate(3) // double trim is a no-op
	if err := f.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLDoubleCommitPanics(t *testing.T) {
	f := newTestFTL()
	ppa := f.AllocPage(0)
	f.CommitWrite(1, ppa, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double commit to same ppa did not panic")
		}
	}()
	f.CommitWrite(2, ppa, false)
}

func TestFTLPickVictimGreedy(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	// Fill two blocks in plane 0: block A gets 4 live pages, block B gets
	// 4 pages of which 3 are then overwritten into block C.
	for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
		f.CommitWrite(lpa, f.AllocPage(0), false) // block 0
	}
	for lpa := int64(4); lpa < int64(4+g.PagesPerBlock); lpa++ {
		f.CommitWrite(lpa, f.AllocPage(0), false) // block 1
	}
	for lpa := int64(4); lpa < 7; lpa++ { // invalidate 3 pages of block 1
		f.CommitWrite(lpa, f.AllocPage(0), false) // block 2
	}
	victim, ok := f.PickVictim(0)
	if !ok || victim != 1 {
		t.Fatalf("victim = %d %v, want block 1", victim, ok)
	}
	lpas := f.ValidLPAs(0, victim)
	if len(lpas) != 1 || lpas[0] != 7 {
		t.Fatalf("valid lpas = %v, want [7]", lpas)
	}
}

func TestFTLOnErased(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
		f.CommitWrite(lpa, f.AllocPage(0), false)
	}
	// Relocate everything out, then erase.
	victim, _ := f.PickVictim(0)
	for _, lpa := range f.ValidLPAs(0, victim) {
		f.CommitWrite(lpa, f.AllocPage(0), true)
	}
	free := f.FreeBlocks(0)
	f.OnErased(0, victim)
	if f.FreeBlocks(0) != free+1 {
		t.Fatal("erased block not returned to pool")
	}
	if f.GCProgrammed() != uint64(g.PagesPerBlock) {
		t.Fatalf("gc programmed = %d", f.GCProgrammed())
	}
	if f.WAF() <= 1 {
		t.Fatalf("WAF = %v, want > 1 after relocation", f.WAF())
	}
	if err := f.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLEraseValidPanics(t *testing.T) {
	f := newTestFTL()
	f.CommitWrite(0, f.AllocPage(0), false)
	defer func() {
		if recover() == nil {
			t.Fatal("erasing block with valid pages did not panic")
		}
	}()
	f.OnErased(0, 0)
}

func TestFTLAvailablePages(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	total := g.BlocksPerPlane * g.PagesPerBlock
	if f.AvailablePages(0) != total {
		t.Fatalf("fresh available = %d", f.AvailablePages(0))
	}
	f.AllocPage(0)
	if f.AvailablePages(0) != total-1 {
		t.Fatalf("after one alloc = %d", f.AvailablePages(0))
	}
}

// TestFTLDefaultGeometryOpensLazily runs the allocator on a plane of the
// physical 1024-block default drive: every block starts free and unworn,
// erased blocks wait behind the never-opened ones until those run out,
// and only then reopen, least-worn (here, first-erased) first.
func TestFTLDefaultGeometryOpensLazily(t *testing.T) {
	cfg := DefaultConfig()
	g := cfg.Geometry()
	if g.BlocksPerPlane != 1024 {
		t.Fatalf("default drive has %d blocks per plane, want the physical 1024", g.BlocksPerPlane)
	}
	f := NewFTL(g, cfg.LogicalPages())
	last := g.BlocksPerPlane - 1
	if f.FreeBlocks(0) != g.BlocksPerPlane || f.AvailablePages(0) != g.BlocksPerPlane*g.PagesPerBlock ||
		f.BlockErases(0, last) != 0 || f.ValidCount(0, last) != 0 || f.Retired(0, last) {
		t.Fatal("a fresh plane's blocks are not all free, unworn and unmapped")
	}
	// Each pass rewrites one block's worth of pages into a newly opened
	// block and erases the block the previous pass filled.
	for pass := 0; pass < g.BlocksPerPlane+64; pass++ {
		for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
			ppa := f.AllocPage(0)
			if want := pass % g.BlocksPerPlane; lpa == 0 && ppa.Block != want {
				t.Fatalf("pass %d opened block %d, want %d", pass, ppa.Block, want)
			}
			f.CommitWrite(lpa, ppa, false)
		}
		if pass > 0 {
			victim, ok := f.PickVictim(0)
			if !ok {
				t.Fatalf("pass %d: no victim", pass)
			}
			f.OnErased(0, victim)
		}
		if n := f.FreeBlocks(0); n != g.BlocksPerPlane-1 {
			t.Fatalf("pass %d: %d free blocks, want %d", pass, n, g.BlocksPerPlane-1)
		}
	}
	if lo, hi := f.WearSpread(0); lo != 1 || hi != 2 {
		t.Fatalf("wear spread %d..%d, want 1..2", lo, hi)
	}
	if lo, hi := f.WearSpread(1); lo != 0 || hi != 0 {
		t.Fatalf("untouched plane's wear spread %d..%d, want 0..0", lo, hi)
	}
	if err := f.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLLPABoundsPanics(t *testing.T) {
	f := newTestFTL()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range lpa did not panic")
		}
	}()
	f.Lookup(f.LogicalPages())
}

func TestFTLExhaustionPanics(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	for i := 0; i < g.BlocksPerPlane*g.PagesPerBlock; i++ {
		f.AllocPage(0)
	}
	if f.CanAlloc(0) {
		t.Fatal("CanAlloc on exhausted plane")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("alloc on exhausted plane did not panic")
		}
	}()
	f.AllocPage(0)
}

// Property: after any random sequence of writes, overwrites, trims and GC
// rounds, the FTL maps remain a consistent bijection.
func TestFTLConsistencyProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ftl := newTestFTL()
		g := ftl.Geometry()
		ops := int(opsRaw%300) + 50
		for i := 0; i < ops; i++ {
			plane := rng.Intn(g.Planes())
			switch rng.Intn(10) {
			case 0: // trim
				ftl.Invalidate(rng.Int63n(ftl.LogicalPages()))
			case 1, 2: // GC round if space is short
				if ftl.FreeBlocks(plane) <= 2 {
					if victim, ok := ftl.PickVictim(plane); ok {
						for _, lpa := range ftl.ValidLPAs(plane, victim) {
							if !ftl.CanAlloc(plane) {
								return true // degenerate fill; fine
							}
							ftl.CommitWrite(lpa, ftl.AllocPage(plane), true)
						}
						ftl.OnErased(plane, victim)
					}
				}
			default: // write
				if !ftl.CanAlloc(plane) {
					continue
				}
				lpa := rng.Int63n(ftl.LogicalPages())
				ftl.CommitWrite(lpa, ftl.AllocPage(plane), false)
			}
		}
		return ftl.CheckConsistent() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkAgainstLookups audits the FTL's derived views against the forward
// map: CheckConsistent, NthMappedLPA visiting mapped pages in ascending
// order, and each block's ValidLPAs listing exactly the pages Lookup
// places in it, in physical page order.
func checkAgainstLookups(t *testing.T, f *FTL, step string) {
	t.Helper()
	if err := f.CheckConsistent(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	g := f.Geometry()
	var mapped []int64
	owner := make(map[int64]int64) // linear PPA -> lpa, per Lookup
	for lpa := int64(0); lpa < f.LogicalPages(); lpa++ {
		if ppa, ok := f.Lookup(lpa); ok {
			mapped = append(mapped, lpa)
			owner[g.Linear(ppa)] = lpa
		}
	}
	if n := f.MappedPages(); n != int64(len(mapped)) {
		t.Fatalf("%s: MappedPages %d, Lookup finds %d", step, n, len(mapped))
	}
	for k, want := range mapped {
		if got, ok := f.NthMappedLPA(int64(k)); !ok || got != want {
			t.Fatalf("%s: NthMappedLPA(%d) = %d %v, want %d", step, k, got, ok, want)
		}
	}
	for plane := 0; plane < g.Planes(); plane++ {
		for block := 0; block < g.BlocksPerPlane; block++ {
			var want []int64
			base := int64(plane*g.BlocksPerPlane+block) * int64(g.PagesPerBlock)
			for p := int64(0); p < int64(g.PagesPerBlock); p++ {
				if lpa, ok := owner[base+p]; ok {
					want = append(want, lpa)
				}
			}
			if got := f.ValidLPAs(plane, block); !slices.Equal(got, want) {
				t.Fatalf("%s: ValidLPAs(%d, %d) = %v, want %v", step, plane, block, got, want)
			}
		}
	}
}

// TestFTLBlockReuse erases blocks and reopens them, twice over, then
// keeps cycling erase → reopen → commit on the warmed FTL. The reverse
// map keeps each block's entries across erases, so the cycle must reuse
// storage: once every block has been mapped it allocates nothing. This
// is the overwrite stream the WAF measurement drives.
func TestFTLBlockReuse(t *testing.T) {
	g := Geometry{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 2, BlocksPerPlane: 2, PagesPerBlock: 4, PageSize: 16384}
	f := NewFTL(g, g.TotalPages()/2)
	// rewrite overwrites the working set, logical pages 0..3, filling one
	// block of plane 0; it returns the block it filled.
	rewrite := func() int {
		var block int
		for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
			ppa := f.AllocPage(0)
			f.CommitWrite(lpa, ppa, false)
			block = ppa.Block
		}
		return block
	}
	// eraseStale collects plane 0's fully stale block.
	eraseStale := func(want int, step string) {
		victim, ok := f.PickVictim(0)
		if !ok || victim != want {
			t.Fatalf("%s: victim %d %v, want block %d", step, victim, ok, want)
		}
		if lpas := f.ValidLPAs(0, victim); len(lpas) != 0 {
			t.Fatalf("%s: stale victim still holds %v", step, lpas)
		}
		f.OnErased(0, victim)
		checkAgainstLookups(t, f, step)
	}

	if b := rewrite(); b != 0 {
		t.Fatalf("first fill landed in block %d", b)
	}
	// Static data interleaved with the working set on the other plane.
	f.CommitWrite(6, f.AllocPage(1), false)
	f.CommitWrite(5, f.AllocPage(1), false)
	checkAgainstLookups(t, f, "fill")
	if b := rewrite(); b != 1 {
		t.Fatalf("overwrite landed in block %d", b)
	}
	checkAgainstLookups(t, f, "overwrite")
	eraseStale(0, "erase block 0")
	if b := rewrite(); b != 0 {
		t.Fatalf("reopen landed in block %d, want the erased block 0", b)
	}
	checkAgainstLookups(t, f, "reopen block 0")
	eraseStale(1, "erase block 1")
	if b := rewrite(); b != 1 {
		t.Fatalf("second reopen landed in block %d, want block 1", b)
	}
	checkAgainstLookups(t, f, "reopen block 1")

	stale := 0
	cycle := func() {
		victim, ok := f.PickVictim(0)
		if !ok || victim != stale {
			panic("steady cycle lost the stale block")
		}
		f.OnErased(0, victim)
		stale = 1 - rewrite()
	}
	per := testing.AllocsPerRun(100, cycle)
	//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
	if per != 0 {
		t.Fatalf("erase → reopen → commit allocates %v per cycle on a warmed FTL, want 0", per)
	}
	checkAgainstLookups(t, f, "steady cycles")
	if e := f.BlockErases(0, 0) + f.BlockErases(0, 1); e != 2+101 {
		t.Fatalf("plane 0 erased %d times, want %d", e, 2+101)
	}
}

// BenchmarkFTLCommit measures one page commit on the default geometry in
// a steady overwrite stream: each plane rewrites its share of a 384-page
// window, and a plane short of free blocks erases its stale victim first.
func BenchmarkFTLCommit(b *testing.B) {
	g := DefaultConfig().Geometry()
	f := NewFTL(g, DefaultConfig().LogicalPages())
	planes := int64(g.Planes())
	const window = 384
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpa := int64(i) % window
		plane := int(lpa % planes)
		if f.FreeBlocks(plane) < 2 {
			if victim, ok := f.PickVictim(plane); ok && f.ValidCount(plane, victim) == 0 {
				f.OnErased(plane, victim)
			}
		}
		f.CommitWrite(lpa, f.AllocPage(plane), false)
	}
}
