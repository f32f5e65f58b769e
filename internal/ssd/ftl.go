package ssd

import (
	"fmt"
	"math"
)

const unmapped = int64(-1)

// Both translation maps store entries as uint32 biased by +1, so a zero
// entry — the state make leaves behind — already means unmapped and no
// -1 fill pass is needed. The bias caps a device (and its logical space)
// at 2^32-2 pages, checked at build.

// l2pMap is the forward map, logical page → linear PPA: a dense slice
// grown on demand to the highest logical page written. The layout places
// a run's window at logical pages 0..N-1, so the map is the size of the
// window, not of the device.
type l2pMap struct {
	v     []uint32
	limit int64 // logical capacity: growth never exceeds it
}

func (m *l2pMap) get(lpa int64) int64 {
	if lpa >= int64(len(m.v)) {
		return unmapped
	}
	return int64(m.v[lpa]) - 1
}

func (m *l2pMap) set(lpa, lin int64) {
	if lpa >= int64(len(m.v)) {
		if lin == unmapped {
			return
		}
		m.v = extend(m.v, lpa+1, m.limit)
	}
	m.v[lpa] = uint32(lin + 1)
}

// extend lengthens s to n entries. Full storage doubles (capped at limit
// entries), so a sequential fill copies each entry O(1) times. Neither map
// ever shrinks, so entries past len were never written and are still zero.
func extend(s []uint32, n, limit int64) []uint32 {
	if n > int64(cap(s)) {
		grown := make([]uint32, len(s), min(max(2*int64(cap(s)), n), limit))
		copy(grown, s)
		s = grown
	}
	return s[:n]
}

// forEach visits every mapped entry in logical page order.
func (m *l2pMap) forEach(fn func(lpa, lin int64)) {
	for i, v := range m.v {
		if v != 0 {
			fn(int64(i), int64(v)-1)
		}
	}
}

// p2lMap is the reverse map, linear PPA → logical page, kept per block as
// a real FTL keeps it out-of-band. A block's PagesPerBlock entries are
// carved from one shared arena the first time a page in it is mapped and
// stay attached to the block for the device's life: erase and retirement
// clear them in place, and the block reuses them when it reopens. The
// layout is pointer-free (one arena plus an int32 slot in each block's
// record) so the garbage collector never scans it.
type p2lMap struct {
	ppb   int64
	limit int64 // the device's physical pages: arena growth never exceeds it
	arena []uint32
}

// run returns the entries at a block's slot (1 + arena run), or nil for
// slot 0: a block never mapped, every entry unmapped.
func (m *p2lMap) run(slot int32) []uint32 {
	if slot == 0 {
		return nil
	}
	off := int64(slot-1) * m.ppb
	return m.arena[off : off+m.ppb : off+m.ppb]
}

// attach carves a zeroed run of entries at the arena's end and returns
// its slot.
func (m *p2lMap) attach() int32 {
	off := int64(len(m.arena))
	m.arena = extend(m.arena, off+m.ppb, m.limit)
	return int32(off/m.ppb) + 1
}

// blockInfo is the FTL's record of one block.
type blockInfo struct {
	valid  int32 // valid pages
	erases int32 // P/E cycles (the FTL's own tally)
	// inflight counts issued, not yet committed programs. A block with
	// in-flight programs must not be erased: the mapping commits at
	// program completion, and erasing out from under it would either
	// destroy the data racing toward the block or let the commit land in
	// an erased block.
	inflight int32
	p2l      int32 // reverse-map slot (see p2lMap.run)
	retired  bool  // permanently out of circulation
}

// FTL is a page-level log-structured flash translation layer. It owns the
// logical→physical map, per-plane write frontiers, per-block valid counts,
// and the bookkeeping half of garbage collection. It performs no simulated
// I/O itself — the Device drives NAND timing and calls in here for
// allocation and mapping decisions, so the FTL is directly unit-testable.
type FTL struct {
	geo          Geometry
	logicalPages int64

	l2p l2pMap // logical page -> linear PPA, or unmapped
	p2l p2lMap // linear PPA -> logical page, or unmapped (free/stale)

	planes       []planeAlloc
	retiredCount int

	// Write-amplification accounting.
	hostProgrammed uint64
	gcProgrammed   uint64
}

// Stream tags an allocation with its data temperature so the FTL can keep
// hot (freshly written, soon re-invalidated) and cold (GC-relocated,
// long-lived) pages in separate blocks — the standard hot/cold separation
// that keeps victim blocks either mostly stale or mostly valid instead of
// an expensive mix.
type Stream int

// Allocation streams.
const (
	HotStream  Stream = 0 // host writes and in-storage updates
	ColdStream Stream = 1 // GC relocations
)

// planeAlloc is the state of one plane: its block table, the erased
// blocks ready to reopen, per-stream open blocks being filled, and full
// blocks awaiting GC.
//
// The table holds the blocks opened so far, by block id, and grows by one
// each time a never-opened block opens, so its length is the plane's
// never-opened cursor: every block at or past it is erased, unworn and
// unmapped, and reads as a zero record. Set-up therefore costs nothing
// per block of the device, and a run's tables grow with the blocks its
// window writes.
type planeAlloc struct {
	blocks   []blockInfo
	recycled []int32  // erased after use, ready to reopen (FIFO)
	open     [2]int32 // filling, per stream; -1 when none
	next     [2]int   // next page within open, per stream
	full     []int32  // completely written blocks
}

// NewFTL builds an FTL over the geometry exposing logicalPages of capacity.
func NewFTL(geo Geometry, logicalPages int64) *FTL {
	total := geo.TotalPages()
	if logicalPages <= 0 || logicalPages > total {
		panic(fmt.Sprintf("ssd: logical pages %d vs physical %d", logicalPages, total))
	}
	if total >= 1<<32-1 {
		panic(fmt.Sprintf("ssd: %d pages exceed the uint32 map encoding", total))
	}
	f := &FTL{
		geo:          geo,
		logicalPages: logicalPages,
		l2p:          l2pMap{limit: logicalPages},
		p2l:          p2lMap{ppb: int64(geo.PagesPerBlock), limit: total},
		planes:       make([]planeAlloc, geo.Planes()),
	}
	for p := range f.planes {
		f.planes[p].open = [2]int32{-1, -1}
	}
	return f
}

// info returns a copy of a block's record; a never-opened block reads as
// the zero record.
func (f *FTL) info(planeIdx, block int) blockInfo {
	if t := f.planes[planeIdx].blocks; block < len(t) {
		return t[block]
	}
	return blockInfo{}
}

// at returns an opened block's record for update.
func (f *FTL) at(planeIdx, block int) *blockInfo { return &f.planes[planeIdx].blocks[block] }

// blockOf returns the plane and block holding linear page lin.
func (f *FTL) blockOf(lin int64) (planeIdx, block int) {
	b := int(lin / f.p2l.ppb)
	return b / f.geo.BlocksPerPlane, b % f.geo.BlocksPerPlane
}

// reverse returns the logical page mapped at linear page lin, or unmapped.
func (f *FTL) reverse(lin int64) int64 {
	if e := f.p2l.run(f.info(f.blockOf(lin)).p2l); e != nil {
		return int64(e[lin%f.p2l.ppb]) - 1
	}
	return unmapped
}

// mapPage binds linear page lin to lpa in both maps and counts it valid.
func (f *FTL) mapPage(lpa, lin int64) {
	blk := f.at(f.blockOf(lin))
	if blk.p2l == 0 {
		blk.p2l = f.p2l.attach()
	}
	f.p2l.run(blk.p2l)[lin%f.p2l.ppb] = uint32(lpa + 1)
	blk.valid++
	f.l2p.set(lpa, lin)
}

// unmapPage drops the reverse entry of the mapped linear page lin and its
// valid count; the caller updates the forward map.
func (f *FTL) unmapPage(lin int64) {
	blk := f.at(f.blockOf(lin))
	f.p2l.run(blk.p2l)[lin%f.p2l.ppb] = 0
	blk.valid--
}

// Geometry returns the device geometry.
func (f *FTL) Geometry() Geometry { return f.geo }

// LogicalPages returns the exposed capacity in pages.
func (f *FTL) LogicalPages() int64 { return f.logicalPages }

// Lookup translates a logical page; ok is false when the page was never
// written (or was trimmed).
func (f *FTL) Lookup(lpa int64) (PPA, bool) {
	f.checkLPA(lpa)
	lin := f.l2p.get(lpa)
	if lin == unmapped {
		return PPA{}, false
	}
	return f.geo.FromLinear(lin), true
}

func (f *FTL) checkLPA(lpa int64) {
	if lpa < 0 || lpa >= f.logicalPages {
		panic(fmt.Sprintf("ssd: lpa %d outside logical capacity %d", lpa, f.logicalPages))
	}
}

// FreeBlocks returns the number of erased blocks available in a plane:
// the recycled ones plus those never opened.
func (f *FTL) FreeBlocks(planeIdx int) int {
	pa := &f.planes[planeIdx]
	return len(pa.recycled) + f.geo.BlocksPerPlane - len(pa.blocks)
}

// AvailablePages returns the number of pages that can still be allocated
// in the plane without reclaiming space: the remainders of the open blocks
// plus all free blocks.
func (f *FTL) AvailablePages(planeIdx int) int {
	pa := &f.planes[planeIdx]
	n := f.FreeBlocks(planeIdx) * f.geo.PagesPerBlock
	for s := range pa.open {
		if pa.open[s] >= 0 {
			n += f.geo.PagesPerBlock - pa.next[s]
		}
	}
	return n
}

// CanAlloc reports whether AllocPage on the plane would succeed for the
// hot stream.
func (f *FTL) CanAlloc(planeIdx int) bool {
	return f.planes[planeIdx].open[HotStream] >= 0 || f.FreeBlocks(planeIdx) > 0
}

// AllocPage claims the next hot-stream page of the plane's write frontier.
// It panics when the plane has no open or free block — the Device must
// garbage collect (or backpressure) before exhaustion, checked via
// CanAlloc.
func (f *FTL) AllocPage(planeIdx int) PPA {
	return f.AllocPageStream(planeIdx, HotStream)
}

// AllocPageStream claims the next page of the given stream's write
// frontier. Keeping GC relocations (cold) out of the host/update (hot)
// blocks is the hot/cold separation that stops victim blocks from mixing
// long-lived and short-lived pages. A cold-stream allocation falls back to
// the hot open block when no free block exists to open.
func (f *FTL) AllocPageStream(planeIdx int, stream Stream) PPA {
	pa := &f.planes[planeIdx]
	s := int(stream)
	if pa.open[s] < 0 {
		switch {
		case f.FreeBlocks(planeIdx) > 0:
			pa.open[s] = f.openFree(pa)
			pa.next[s] = 0
		case stream == ColdStream && pa.open[HotStream] >= 0:
			// Cold stream may borrow the hot open block rather than wedge.
			s = int(HotStream)
		default:
			panic(fmt.Sprintf("ssd: plane %d out of blocks", planeIdx))
		}
	}
	ch, die, plane := f.geo.PlaneLoc(planeIdx)
	ppa := PPA{Channel: ch, Die: die}
	ppa.Plane = plane
	ppa.Block = int(pa.open[s])
	ppa.Page = pa.next[s]
	pa.next[s]++
	if pa.next[s] == f.geo.PagesPerBlock {
		pa.full = append(pa.full, pa.open[s])
		pa.open[s] = -1
	}
	return ppa
}

// openFree takes the free block the plane opens next. Wear-aware
// selection opens the least-erased free block, ties to the one freed
// first — the dynamic half of wear levelling. Never-opened blocks are
// unworn and rank ahead of every recycled block but an unworn one (only
// recovery recycles those), lowest id first, so the cursor stands for
// all of them.
func (f *FTL) openFree(pa *planeAlloc) int32 {
	best := -1
	for i, b := range pa.recycled {
		if best < 0 || pa.blocks[b].erases < pa.blocks[pa.recycled[best]].erases {
			best = i
		}
	}
	if best >= 0 && (len(pa.blocks) == f.geo.BlocksPerPlane || pa.blocks[pa.recycled[best]].erases == 0) {
		b := pa.recycled[best]
		pa.recycled = append(pa.recycled[:best], pa.recycled[best+1:]...)
		return b
	}
	pa.blocks = append(pa.blocks, blockInfo{})
	return int32(len(pa.blocks) - 1)
}

// CommitWrite binds lpa to a freshly allocated ppa, invalidating any prior
// mapping. Host writes and GC relocations are tallied separately for
// write-amplification reporting.
func (f *FTL) CommitWrite(lpa int64, ppa PPA, gc bool) {
	f.checkLPA(lpa)
	lin := f.geo.Linear(ppa)
	if f.reverse(lin) != unmapped {
		panic(fmt.Sprintf("ssd: commit to already-valid page %v", ppa))
	}
	if old := f.l2p.get(lpa); old != unmapped {
		f.unmapPage(old)
	}
	f.mapPage(lpa, lin)
	if gc {
		f.gcProgrammed++
	} else {
		f.hostProgrammed++
	}
}

// Invalidate trims a logical page, dropping its mapping if present.
func (f *FTL) Invalidate(lpa int64) {
	f.checkLPA(lpa)
	if old := f.l2p.get(lpa); old != unmapped {
		f.unmapPage(old)
		f.l2p.set(lpa, unmapped)
	}
}

// BeginProgram records a program issued to ppa whose mapping will commit
// at completion (EndProgram). The FTL refuses to pick blocks with in-
// flight programs as GC victims while the count is nonzero.
func (f *FTL) BeginProgram(ppa PPA) {
	f.at(f.geo.PlaneOf(ppa), ppa.Block).inflight++
}

// EndProgram retires a BeginProgram record when the program completes (or
// completes stale, in which case no mapping is committed).
func (f *FTL) EndProgram(ppa PPA) {
	blk := f.at(f.geo.PlaneOf(ppa), ppa.Block)
	if blk.inflight--; blk.inflight < 0 {
		panic(fmt.Sprintf("ssd: EndProgram without BeginProgram on %v", ppa))
	}
}

// InflightPrograms returns the number of issued-but-uncommitted programs
// targeting the plane.
func (f *FTL) InflightPrograms(planeIdx int) (n int) {
	for _, b := range f.planes[planeIdx].blocks {
		n += int(b.inflight)
	}
	return n
}

// PickVictim removes and returns the full block with the fewest valid
// pages in the plane (greedy policy). ok is false when no eligible full
// block exists or the best candidate is entirely valid — erasing an
// all-valid block reclaims nothing and would make GC churn forever.
// Blocks with in-flight programs are ineligible (see BeginProgram).
func (f *FTL) PickVictim(planeIdx int) (block int, ok bool) {
	pa := &f.planes[planeIdx]
	best := -1
	for i, b := range pa.full {
		if pa.blocks[b].inflight > 0 {
			continue
		}
		if best < 0 || pa.blocks[b].valid < pa.blocks[pa.full[best]].valid {
			best = i
		}
	}
	if best < 0 || int(pa.blocks[pa.full[best]].valid) == f.geo.PagesPerBlock {
		return 0, false
	}
	b := pa.full[best]
	pa.full = append(pa.full[:best], pa.full[best+1:]...)
	return int(b), true
}

// TakeBlock removes a block from the plane's full list without erasing it
// — the first step of retirement. It returns false when the block is not
// currently in the full list (free, open, or already claimed by GC as a
// victim); retirement is then deferred until the block next fills.
func (f *FTL) TakeBlock(planeIdx, block int) bool {
	pa := &f.planes[planeIdx]
	for i, b := range pa.full {
		if int(b) == block {
			pa.full = append(pa.full[:i], pa.full[i+1:]...)
			return true
		}
	}
	return false
}

// RetireBlock marks a block permanently out of circulation. The caller
// must have removed it from the allocation lists (TakeBlock) and relocated
// its valid pages first.
func (f *FTL) RetireBlock(planeIdx, block int) {
	blk := f.at(planeIdx, block)
	if blk.retired {
		panic(fmt.Sprintf("ssd: block %d/%d retired twice", planeIdx, block))
	}
	if blk.valid != 0 {
		panic(fmt.Sprintf("ssd: retiring block %d/%d with %d valid pages", planeIdx, block, blk.valid))
	}
	if blk.inflight != 0 {
		panic(fmt.Sprintf("ssd: retiring block %d/%d with in-flight programs", planeIdx, block))
	}
	// Drop stale reverse mappings so the retired block holds nothing.
	clear(f.p2l.run(blk.p2l))
	blk.retired = true
	f.retiredCount++
}

// Retired reports whether a plane's block has been retired.
func (f *FTL) Retired(planeIdx, block int) bool { return f.info(planeIdx, block).retired }

// RetiredBlocks returns the total number of retired blocks.
func (f *FTL) RetiredBlocks() int { return f.retiredCount }

// MappedPages returns the number of logical pages currently mapped.
func (f *FTL) MappedPages() int64 { return validIn(f.planes) }

// validIn sums the valid pages of the planes' blocks.
func validIn(planes []planeAlloc) (n int64) {
	for p := range planes {
		for _, b := range planes[p].blocks {
			n += int64(b.valid)
		}
	}
	return n
}

// NthMappedLPA returns the k-th (mod count) mapped logical page in lpa
// order, or ok=false when nothing is mapped. Fault injection uses it to
// pick a deterministic victim page from a seed without knowing the
// workload's footprint.
func (f *FTL) NthMappedLPA(k int64) (lpa int64, ok bool) {
	total := f.MappedPages()
	if total == 0 {
		return 0, false
	}
	k %= total
	if k < 0 {
		k += total
	}
	f.l2p.forEach(func(l, _ int64) {
		if ok {
			return
		}
		if k == 0 {
			lpa, ok = l, true
			return
		}
		k--
	})
	return lpa, ok
}

// ValidPagesOnDie sums the valid pages mapped to one die — the data a die
// failure would take out.
func (f *FTL) ValidPagesOnDie(ch, die int) int64 {
	first := f.geo.PlaneIndex(ch, die, 0)
	return validIn(f.planes[first : first+f.geo.PlanesPerDie])
}

// restoreMapping installs lpa→ppa during crash-recovery replay: same map
// updates as CommitWrite but with no displacement (the rebuilt maps start
// empty) and no program tallies (the programs happened before the crash).
func (f *FTL) restoreMapping(lpa int64, ppa PPA) {
	f.checkLPA(lpa)
	lin := f.geo.Linear(ppa)
	if f.reverse(lin) != unmapped {
		panic(fmt.Sprintf("ssd: recovery maps two lpas to %v", ppa))
	}
	if f.l2p.get(lpa) != unmapped {
		panic(fmt.Sprintf("ssd: recovery maps lpa %d twice", lpa))
	}
	f.mapPage(lpa, lin)
}

// ValidLPAs returns the logical pages still valid in a plane's block, in
// physical page order — the relocation work list for GC.
func (f *FTL) ValidLPAs(planeIdx, block int) []int64 {
	var lpas []int64
	for _, v := range f.p2l.run(f.info(planeIdx, block).p2l) {
		if v != 0 {
			lpas = append(lpas, int64(v)-1)
		}
	}
	return lpas
}

// ValidCount returns the number of valid pages in a plane's block.
func (f *FTL) ValidCount(planeIdx, block int) int {
	return int(f.info(planeIdx, block).valid)
}

// OnErased returns a block to the plane's free pool after the Device has
// erased it. The block must hold no valid pages.
func (f *FTL) OnErased(planeIdx, block int) {
	blk := f.at(planeIdx, block)
	if blk.valid != 0 {
		panic(fmt.Sprintf("ssd: erasing block %d/%d with %d valid pages", planeIdx, block, blk.valid))
	}
	if blk.retired {
		panic(fmt.Sprintf("ssd: erasing retired block %d/%d", planeIdx, block))
	}
	// Drop stale reverse mappings for the erased block.
	clear(f.p2l.run(blk.p2l))
	blk.erases++
	f.planes[planeIdx].recycled = append(f.planes[planeIdx].recycled, int32(block))
}

// BlockErases returns the FTL's P/E tally for a plane's block.
func (f *FTL) BlockErases(planeIdx, block int) int {
	return int(f.info(planeIdx, block).erases)
}

// WearSpread returns the min and max P/E count across a plane's blocks —
// the quantity wear levelling exists to bound. Never-opened blocks count
// as unworn.
func (f *FTL) WearSpread(planeIdx int) (lo, hi int) {
	t := f.planes[planeIdx].blocks
	if lo = math.MaxInt; len(t) < f.geo.BlocksPerPlane {
		lo = 0
	}
	for _, b := range t {
		lo, hi = min(lo, int(b.erases)), max(hi, int(b.erases))
	}
	return lo, hi
}

// HostProgrammed and GCProgrammed return the page-program tallies; their
// ratio is the write-amplification factor.
func (f *FTL) HostProgrammed() uint64 { return f.hostProgrammed }

// GCProgrammed returns the relocation program count.
func (f *FTL) GCProgrammed() uint64 { return f.gcProgrammed }

// WAF returns the write-amplification factor (total programs per host
// program), or 1 before any host write.
func (f *FTL) WAF() float64 {
	if f.hostProgrammed == 0 {
		return 1
	}
	return float64(f.hostProgrammed+f.gcProgrammed) / float64(f.hostProgrammed)
}

// CheckConsistent verifies the FTL invariants: l2p/p2l are inverse
// bijections on mapped pages, valid counts match the reverse map, and
// retired blocks hold nothing. Used by property tests; O(opened pages).
func (f *FTL) CheckConsistent() error {
	for p := range f.planes {
		for b, blk := range f.planes[p].blocks {
			g := p*f.geo.BlocksPerPlane + b
			var valid int32
			for i, v := range f.p2l.run(blk.p2l) {
				if v == 0 {
					continue
				}
				lin, lpa := int64(g)*f.p2l.ppb+int64(i), int64(v)-1
				if lpa < 0 || lpa >= f.logicalPages {
					return fmt.Errorf("p2l[%d] = %d out of range", lin, lpa)
				}
				if got := f.l2p.get(lpa); got != lin {
					return fmt.Errorf("p2l[%d]=%d but l2p[%d]=%d", lin, lpa, lpa, got)
				}
				valid++
			}
			if valid != blk.valid {
				return fmt.Errorf("block %d validCount %d, recount %d", g, blk.valid, valid)
			}
			if blk.retired && (blk.valid != 0 || blk.inflight != 0) {
				return fmt.Errorf("retired block %d has valid=%d inflight=%d", g, blk.valid, blk.inflight)
			}
			if blk.inflight < 0 {
				return fmt.Errorf("block %d inflight %d negative", g, blk.inflight)
			}
		}
	}
	var err error
	f.l2p.forEach(func(lpa, lin int64) {
		if got := f.reverse(lin); err == nil && got != lpa {
			err = fmt.Errorf("l2p[%d]=%d but p2l[%d]=%d", lpa, lin, lin, got)
		}
	})
	return err
}

// HasFullBlock reports whether the plane has at least one completely
// written block (a GC candidate).
func (f *FTL) HasFullBlock(planeIdx int) bool {
	return len(f.planes[planeIdx].full) > 0
}
