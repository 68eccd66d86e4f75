package resil

import (
	"errors"
	"fmt"

	"sunwaylb/internal/core"
)

// ErrPhaseMismatch is returned by RestoreInto when a snapshot's step
// parity disagrees with the target lattice's AA storage phase. An
// AA-pattern lattice stores populations in one of two layouts selected by
// the parity of its step counter; writing an odd-parity snapshot into an
// even-phase lattice (or vice versa) would scatter the payload into the
// wrong slots. Callers must SetStep to the snapshot's step (or one with
// the same parity) before restoring.
var ErrPhaseMismatch = errors.New("resil: snapshot step parity does not match lattice AA phase")

// RestoreInto writes a snapshot's interior state back into a lattice
// whose interior dimensions match the snapshot block. It validates the
// geometry and, for AA lattices, the storage phase — the lattice's step
// counter must already carry the snapshot's parity (SetStep first, then
// restore). The step counter itself is NOT modified: restore placement
// is the caller's contract, phase correctness is this function's.
func RestoreInto(lat *core.Lattice, s *Snapshot) error {
	if s.NX != lat.NX || s.NY != lat.NY || s.NZ != lat.NZ {
		return fmt.Errorf("resil: snapshot block %dx%dx%d does not fit lattice interior %dx%dx%d",
			s.NX, s.NY, s.NZ, lat.NX, lat.NY, lat.NZ)
	}
	if s.Q != lat.Desc.Q {
		return fmt.Errorf("resil: snapshot has %d populations, lattice descriptor %s has %d",
			s.Q, lat.Desc.Name, lat.Desc.Q)
	}
	if want := s.NX * s.NY * s.NZ; len(s.Pops) != want*s.Q || len(s.Flags) != want {
		return fmt.Errorf("resil: snapshot payload sized for %d pops / %d flags, got %d / %d",
			want*s.Q, want, len(s.Pops), len(s.Flags))
	}
	if lat.AA() && lat.Step()&1 != s.Step&1 {
		return fmt.Errorf("%w (snapshot step %d, lattice step %d)",
			ErrPhaseMismatch, s.Step, lat.Step())
	}
	q := s.Q
	src := lat.Src()
	k := 0
	for y := 0; y < lat.NY; y++ {
		for x := 0; x < lat.NX; x++ {
			for z := 0; z < lat.NZ; z++ {
				idx := lat.Idx(x, y, z)
				for i := 0; i < q; i++ {
					src[lat.PopIndex(i, idx)] = s.Pops[k*q+i]
				}
				lat.Flags[idx] = core.CellType(s.Flags[k])
				k++
			}
		}
	}
	lat.FlagsChanged()
	return nil
}
