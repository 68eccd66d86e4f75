package boundary

import (
	"fmt"

	"sunwaylb/internal/core"
)

// NEEInlet is a non-equilibrium-extrapolation velocity inlet (Guo et al.
// 2002): the ghost cell receives the equilibrium of the prescribed
// velocity (with the neighbour's density) plus the neighbour's
// non-equilibrium part,
//
//	f_ghost = f^eq(ρ_f, u_w) + [f_f − f^eq(ρ_f, u_f)],
//
// which carries the local stress through the boundary and is second-order
// accurate where the plain equilibrium ghost (VelocityInlet) is first-order
// — visible as a smaller wall-adjacent error in a developing channel.
type NEEInlet struct {
	Face core.Face
	U    [3]float64
	// Profile, if non-nil, overrides U per halo cell (interior-clamped
	// coordinates, like VelocityInlet).
	Profile func(x, y, z int) [3]float64
}

// Name implements Condition.
func (v *NEEInlet) Name() string { return fmt.Sprintf("nee-inlet(%v)", v.Face) }

// Apply implements Condition.
//
// Per-cell traffic: Q (table + population) reads for the moments, then
// per population two table reads, one population read and one write.
//
//lbm:hot traffic budget=920 assume q=19
func (v *NEEInlet) Apply(l *core.Lattice) {
	src := l.Src()
	d := l.Desc
	q := d.Q
	var feqWArr, feqFArr [core.MaxQ]float64
	feqW, feqF := feqWArr[:q], feqFArr[:q]
	fs := slotsOf(l, v.Face)
	n := len(fs.cells)
	for k, halo := range fs.cells {
		// Neighbour macroscopic state.
		var rho, jx, jy, jz float64
		for i := 0; i < q; i++ {
			fi := src[fs.inner[i*n+k]]
			rho += fi
			c := d.C[i]
			jx += fi * float64(c[0])
			jy += fi * float64(c[1])
			jz += fi * float64(c[2])
		}
		if rho <= 0 {
			// Solid or uninitialised neighbour: fall back to the
			// plain equilibrium ghost at unit density.
			rho = 1
			jx, jy, jz = 0, 0, 0
		}
		ux, uy, uz := jx/rho, jy/rho, jz/rho
		uw := v.U
		if v.Profile != nil {
			x, y, z := l.Coords(halo)
			uw = v.Profile(clamp(x, l.NX), clamp(y, l.NY), clamp(z, l.NZ))
		}
		d.EquilibriumAll(feqW, rho, uw[0], uw[1], uw[2])
		d.EquilibriumAll(feqF, rho, ux, uy, uz)
		for i := 0; i < q; i++ {
			src[fs.halo[i*n+k]] = feqW[i] + (src[fs.inner[i*n+k]] - feqF[i])
		}
	}
	fs.ghost(l)
}
