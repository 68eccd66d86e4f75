package core

import "testing"

// TestRowCacheFollowsFlagChanges steps a clean AA lattice (every row on
// the cached fast path) next to its double-buffer twin, then changes the
// geometry mid-run — through SetWall and SetMovingWall, and through a
// direct Flags write announced with FlagsChanged — at both storage
// parities, serial and through the pool. The cached clean spans must
// follow every change: a stale span would run the fast path through a
// wall and break bit-identity.
func TestRowCacheFollowsFlagChanges(t *testing.T) {
	for _, pool := range []bool{false, true} {
		ref, aa := buildPair(t, 6, 5, 7, 0.7, false)
		stepAA := (*Lattice).StepFused
		if pool {
			p := NewPool(aa, 2)
			defer p.Close()
			stepAA = func(*Lattice) { p.Step() }
		}
		edits := map[int]func(l *Lattice){
			2: func(l *Lattice) { l.SetWall(3, 2, 3) },
			3: func(l *Lattice) { l.SetWall(1, 3, 5) },
			5: func(l *Lattice) {
				l.Flags[l.Idx(4, 1, 2)] = Wall
				l.FlagsChanged()
			},
			6: func(l *Lattice) { l.SetMovingWall(2, 3, 4, 0.02, 0, -0.01) },
		}
		for s := 1; s <= 8; s++ {
			if edit := edits[s]; edit != nil {
				edit(ref)
				edit(aa)
			}
			stepBoth(ref, aa, stepAA)
			compareLogical(t, ref, aa, s)
		}
	}
}

// TestRowCacheSkipsUnchangedWrites checks that rewriting a flag with its
// current value (what boundary conditions do every step) keeps the
// cached spans, and that a real change drops them.
func TestRowCacheSkipsUnchangedWrites(t *testing.T) {
	_, aa := buildPair(t, 4, 4, 4, 0.7, false)
	aa.PeriodicAll() // first wrap: halo cells turn Fluid
	aa.StepFused()
	gen := aa.flagGen
	halo := aa.Idx(-1, 0, 0)
	aa.SetFlag(halo, aa.Flags[halo])
	aa.PeriodicAll() // copies flags that already agree
	if aa.flagGen != gen {
		t.Fatalf("no-op flag writes bumped the generation %d → %d", gen, aa.flagGen)
	}
	aa.SetFlag(halo, Wall)
	if aa.flagGen == gen {
		t.Fatal("a changed flag kept the generation")
	}
}

// TestFaceSlotsMatchPopIndex checks every face table against PopIndex at
// both AA parities, and that the crossing-only wire lists exactly the
// populations with c·n > 0 leaving (c·n < 0 entering) each face.
func TestFaceSlotsMatchPopIndex(t *testing.T) {
	_, aa := buildPair(t, 5, 4, 3, 0.7, true)
	for s := 0; s < 2; s++ {
		q := aa.Desc.Q
		for f := FaceXMin; f < numFaces; f++ {
			axis, sign := faceAxis(f)
			for layer := 0; layer < 2; layer++ {
				cells, slots := aa.FaceSlots(f, layer)
				if len(cells) != aa.FaceCells(f) || len(slots) != q*len(cells) {
					t.Fatalf("parity %d face %v layer %d: %d cells, %d slots", s, f, layer, len(cells), len(slots))
				}
				n := len(cells)
				for k, idx := range cells {
					for i := 0; i < q; i++ {
						if slots[i*n+k] != aa.PopIndex(i, idx) {
							t.Fatalf("parity %d face %v layer %d cell %d pop %d: slot %d, PopIndex %d",
								s, f, layer, k, i, slots[i*n+k], aa.PopIndex(i, idx))
						}
					}
				}
				wire := aa.wireSlots(f, layer)
				cross := aa.crossing(f, layer)
				if len(wire) != len(cross)*len(cells) {
					t.Fatalf("face %v dir %d: wire %d != %d×%d", f, layer, len(wire), len(cross), len(cells))
				}
				for j, i := range cross {
					v := aa.Desc.C[i][axis] * sign
					if (layer == 0 && v <= 0) || (layer == 1 && v >= 0) {
						t.Fatalf("face %v dir %d lists population %d with c·n = %d", f, layer, i, v)
					}
					for k, idx := range cells {
						if wire[j*len(cells)+k] != aa.PopIndex(i, idx) {
							t.Fatalf("face %v dir %d pop %d cell %d: wire slot mismatch", f, layer, i, k)
						}
					}
				}
				if len(cross) != 5 {
					t.Fatalf("D3Q19 face %v: %d crossing populations, want 5", f, len(cross))
				}
			}
		}
		aa.PeriodicAll()
		aa.StepFused()
	}
}
