package ssd

import "testing"

// FuzzFTLOps drives the translation layer through an arbitrary byte-encoded
// sequence of writes, trims, garbage collections and block retirements on
// a small geometry, auditing the l2p/p2l bijection (CheckConsistent) and a
// shadow valid-page map after every operation. Each op consumes two bytes:
// an opcode selector and an argument (logical page or plane). A collection
// opcode with its high bit set retires the victim instead of erasing it.
func FuzzFTLOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 0, 3, 0})                     // write, write, trim, gc
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 3, 0, 0, 0})         // overwrite then collect
	f.Add([]byte{0, 5, 0, 13, 0, 21, 2, 5, 3, 1, 0, 5, 3, 1}) // spread across planes
	f.Add(retireAfterReuse())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip("bounded op budget")
		}
		g := testGeo()
		logical := g.TotalPages() * 3 / 4
		ftl := NewFTL(g, logical)
		planes := g.Planes()
		live := make(map[int64]bool)

		// collect reclaims one victim block of a plane the way the device's
		// GC does (relocate surviving pages, then erase), entirely through
		// the public FTL surface; with retire it seals the emptied victim
		// out of service the way block retirement does.
		collect := func(plane int, retire bool) {
			// A relocation can need a whole block's worth of fresh pages;
			// skipping when space is short mirrors the device's watermarks.
			if ftl.AvailablePages(plane) < g.PagesPerBlock {
				return
			}
			victim, ok := ftl.PickVictim(plane)
			if !ok {
				return
			}
			erasesBefore := ftl.BlockErases(plane, victim)
			for _, lpa := range ftl.ValidLPAs(plane, victim) {
				ppa := ftl.AllocPageStream(plane, ColdStream)
				ftl.CommitWrite(lpa, ppa, true)
			}
			if n := ftl.ValidCount(plane, victim); n != 0 {
				t.Fatalf("victim %d/%d still has %d valid pages after relocation", plane, victim, n)
			}
			if retire {
				ftl.RetireBlock(plane, victim)
				if lpas := ftl.ValidLPAs(plane, victim); len(lpas) != 0 {
					t.Fatalf("retired block %d/%d still maps %v", plane, victim, lpas)
				}
				return
			}
			ftl.OnErased(plane, victim)
			if after := ftl.BlockErases(plane, victim); after != erasesBefore+1 {
				t.Fatalf("erase count of %d/%d went %d -> %d", plane, victim, erasesBefore, after)
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int64(ops[i+1])
			switch op % 4 {
			case 0, 1: // write (double weight: updates dominate real traffic)
				lpa := arg % logical
				plane := int(lpa) % planes
				if !ftl.CanAlloc(plane) {
					collect(plane, false)
				}
				if !ftl.CanAlloc(plane) {
					continue
				}
				ftl.CommitWrite(lpa, ftl.AllocPage(plane), false)
				live[lpa] = true
			case 2: // trim
				lpa := arg % logical
				ftl.Invalidate(lpa)
				delete(live, lpa)
			case 3: // garbage-collect (or, high bit set, retire) one victim
				collect(int(arg)%planes, op&0x80 != 0)
			}
			if err := ftl.CheckConsistent(); err != nil {
				t.Fatalf("op %d (%d %d): %v", i/2, op, arg, err)
			}
		}

		// No live page may be lost and no dead page may linger, whatever
		// relocations happened in between.
		for lpa := int64(0); lpa < logical; lpa++ {
			if _, ok := ftl.Lookup(lpa); ok != live[lpa] {
				t.Fatalf("lpa %d mapped=%v, shadow says %v", lpa, ok, live[lpa])
			}
		}
		if w := ftl.WAF(); w < 1 {
			t.Fatalf("WAF %v below 1", w)
		}
	})
}

// retireAfterReuse encodes a run in which plane 0's block 0 is filled,
// goes stale, is erased, cycles back into use once every other block has
// taken its turn, goes stale again, and is then retired — the retirement
// of a block whose reverse-map entries were already reused once.
func retireAfterReuse() []byte {
	var ops []byte
	rewrite := func() {
		for _, lpa := range []byte{0, 8, 16, 24} { // all on plane 0
			ops = append(ops, 0, lpa)
		}
	}
	rewrite() // block 0
	for i := 0; i < 8; i++ {
		rewrite()               // the next free block: block 0 again on the last pass
		ops = append(ops, 3, 0) // erase the block this pass made stale
	}
	rewrite()                  // block 0 goes stale after its reuse
	ops = append(ops, 0x83, 0) // retire it
	rewrite()
	return ops
}
