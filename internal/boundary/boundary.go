// Package boundary implements the boundary conditions of SunwayLB's
// pre-processing module: velocity inlets, pressure outlets, zero-gradient
// outflow, free-slip and no-slip planes, and periodic axes.
//
// All conditions operate on the halo (ghost) layer of a core.Lattice: they
// are applied once per time step, before the fused collide–stream kernel,
// so the pull streaming picks the boundary populations up naturally. This
// matches the paper's halo-cell scheme (Fig. 9(1)) where boundary cells
// obtain their data from a single layer of externally-maintained halo
// cells.
package boundary

import (
	"fmt"
	"math"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

// Condition is a boundary condition applied to the lattice halo before
// each time step.
type Condition interface {
	// Name identifies the condition for diagnostics.
	Name() string
	// Apply fills the relevant halo cells of the current buffer.
	Apply(l *core.Lattice)
}

// Set is an ordered collection of boundary conditions applied together.
// Order matters where conditions touch overlapping halo edges: later
// conditions win.
type Set struct {
	conds []Condition
}

// Add appends conditions to the set.
func (s *Set) Add(c ...Condition) { s.conds = append(s.conds, c...) }

// Apply applies every condition in order.
func (s *Set) Apply(l *core.Lattice) {
	for _, c := range s.conds {
		c.Apply(l)
	}
}

// Len reports the number of conditions.
func (s *Set) Len() int { return len(s.conds) }

// faceSlots is what a face condition walks: the halo cells of one face
// and the Src() slots of their logical populations (halo[i*n+k] is
// population i of the k-th of the n cells) and of their inward
// neighbours' (inner[i*n+k]). The cells cover the FULL allocated plane,
// including the halo edges and corners shared with other faces — D3Q19
// streaming pulls diagonally from those edge cells, so they must be owned
// by some condition. Where two faces meet, whichever condition is applied
// later wins; put wall-type conditions last for watertight corners.
//
// The slots come from the lattice's per-phase face tables, so the loops
// below are straight copies at either AA storage parity. A halo cell's
// slots and its inner neighbour's are disjoint (the slot map is a
// bijection), so reading one while writing the other is order-safe.
type faceSlots struct {
	cells, halo, inner []int
}

func slotsOf(l *core.Lattice, f core.Face) faceSlots {
	cells, halo := l.FaceSlots(f, 1)
	_, inner := l.FaceSlots(f, 0)
	return faceSlots{cells: cells, halo: halo, inner: inner}
}

// ghost marks every halo cell of the face Ghost (a no-op after the
// first step: the geometry is static).
func (fs faceSlots) ghost(l *core.Lattice) {
	for _, halo := range fs.cells {
		l.SetFlag(halo, core.Ghost)
	}
}

// VelocityInlet imposes a uniform velocity (and density) on a face by
// filling the halo with the corresponding equilibrium distribution. This
// is the standard equilibrium-ghost inlet; for small Mach numbers it is
// accurate and unconditionally stable.
type VelocityInlet struct {
	Face core.Face
	Rho  float64
	U    [3]float64
	// Profile, if non-nil, overrides U per halo cell; it receives the
	// interior-facing coordinates of the halo cell.
	Profile func(x, y, z int) [3]float64
}

// Name implements Condition.
func (v *VelocityInlet) Name() string { return fmt.Sprintf("velocity-inlet(%v)", v.Face) }

// Apply implements Condition.
//
// Per-cell traffic on the profile path (the uniform path writes one
// population per table entry): Q table reads + Q population writes, plus
// the profile callback's coordinates.
//
//lbm:hot traffic budget=312 assume q=19
func (v *VelocityInlet) Apply(l *core.Lattice) {
	rho := v.Rho
	if rho == 0 {
		rho = 1
	}
	src := l.Src()
	q := l.Desc.Q
	var feqArr [core.MaxQ]float64
	feq := feqArr[:q]
	fs := slotsOf(l, v.Face)
	n := len(fs.cells)
	if v.Profile == nil {
		// Uniform inlet: one equilibrium, written population by
		// population along the table.
		l.Desc.EquilibriumAll(feq, rho, v.U[0], v.U[1], v.U[2])
		for i := 0; i < q; i++ {
			fi := feq[i]
			for _, s := range fs.halo[i*n : i*n+n] {
				src[s] = fi
			}
		}
		fs.ghost(l)
		return
	}
	for k, halo := range fs.cells {
		x, y, z := l.Coords(halo)
		u := v.Profile(clamp(x, l.NX), clamp(y, l.NY), clamp(z, l.NZ))
		l.Desc.EquilibriumAll(feq, rho, u[0], u[1], u[2])
		for i := 0; i < q; i++ {
			src[fs.halo[i*n+k]] = feq[i]
		}
	}
	fs.ghost(l)
}

// clamp limits a halo coordinate to the interior range [0, n).
func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// PressureOutlet imposes a density (pressure p = ρ c_s²) on a face; the
// outgoing velocity is extrapolated from the adjacent interior cell.
type PressureOutlet struct {
	Face core.Face
	Rho  float64
}

// Name implements Condition.
func (p *PressureOutlet) Name() string { return fmt.Sprintf("pressure-outlet(%v)", p.Face) }

// outletBlock is the number of face cells PressureOutlet processes per
// pass, sized so the per-cell moment scratch stays on the stack.
const outletBlock = 64

// Apply implements Condition.
//
// The face is walked in blocks of cells, population by population: the
// moments of a block accumulate along the table rows (consecutive z
// cells, consecutive slots), then each population plane of the block's
// equilibrium is written in one sweep. Per cell, each population is
// still summed in ascending order and the equilibrium is
// lattice.Descriptor.EquilibriumAll's expression, so the result is
// bit-identical to a cell-by-cell loop.
//
// Per-cell traffic: Q (table + population) reads for the inward
// neighbour's moments, Q (table read + population write) for the halo.
//
//lbm:hot traffic budget=608 assume q=19
func (p *PressureOutlet) Apply(l *core.Lattice) {
	rho := p.Rho
	if rho == 0 {
		rho = 1
	}
	src := l.Src()
	d := l.Desc
	q := d.Q
	fs := slotsOf(l, p.Face)
	n := len(fs.cells)
	// r holds the density, then 1 − 1.5|u|²; jx..jz the momentum, then
	// the velocity.
	var r, jx, jy, jz [outletBlock]float64
	for k0 := 0; k0 < n; k0 += outletBlock {
		m := min(outletBlock, n-k0)
		clear(r[:m])
		clear(jx[:m])
		clear(jy[:m])
		clear(jz[:m])
		for i := 0; i < q; i++ {
			c := d.C[i]
			cx, cy, cz := float64(c[0]), float64(c[1]), float64(c[2])
			for k, s := range fs.inner[i*n+k0 : i*n+k0+m] {
				fi := src[s]
				r[k] += fi
				jx[k] += fi * cx
				jy[k] += fi * cy
				jz[k] += fi * cz
			}
		}
		for k := 0; k < m; k++ {
			var ux, uy, uz float64
			if r[k] > 0 {
				ux, uy, uz = jx[k]/r[k], jy[k]/r[k], jz[k]/r[k]
			}
			jx[k], jy[k], jz[k] = ux, uy, uz
			r[k] = 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))
		}
		for i := 0; i < q; i++ {
			c := d.C[i]
			cx, cy, cz := float64(c[0]), float64(c[1]), float64(c[2])
			wr := d.W[i] * rho
			for k, s := range fs.halo[i*n+k0 : i*n+k0+m] {
				cu := cx*jx[k] + cy*jy[k] + cz*jz[k]
				h := 4.5 * cu
				src[s] = wr * (math.FMA(h, cu, r[k]) + 3*cu)
			}
		}
	}
	fs.ghost(l)
}

// Outflow is a zero-gradient (copy) outflow: the halo mirrors the adjacent
// interior cell's populations exactly.
type Outflow struct {
	Face core.Face
}

// Name implements Condition.
func (o *Outflow) Name() string { return fmt.Sprintf("outflow(%v)", o.Face) }

// Apply implements Condition.
//
// Per-slot traffic: two table reads + one population read + one write.
//
//lbm:hot traffic budget=32 assume q=19
func (o *Outflow) Apply(l *core.Lattice) {
	src := l.Src()
	fs := slotsOf(l, o.Face)
	inner := fs.inner[:len(fs.halo)]
	for t, s := range fs.halo {
		src[s] = src[inner[t]]
	}
	fs.ghost(l)
}

// NoSlip marks the halo of a face as a solid wall, turning the face into a
// bounce-back plate positioned half a cell outside the first fluid layer.
type NoSlip struct {
	Face core.Face
}

// Name implements Condition.
func (w *NoSlip) Name() string { return fmt.Sprintf("no-slip(%v)", w.Face) }

// Apply implements Condition.
//
// Per-cell traffic: one cell-table read (the flag write is a no-op
// after the first step).
//
//lbm:hot traffic budget=8 assume q=19
func (w *NoSlip) Apply(l *core.Lattice) {
	cells := l.FaceLayerCells(w.Face, 1)
	for _, halo := range cells {
		l.SetFlag(halo, core.Wall)
	}
}

// MovingNoSlip is a bounce-back plate moving tangentially with velocity U
// (e.g. the lid of a lid-driven cavity).
type MovingNoSlip struct {
	Face core.Face
	U    [3]float64
}

// Name implements Condition.
func (w *MovingNoSlip) Name() string { return fmt.Sprintf("moving-no-slip(%v)", w.Face) }

// Apply implements Condition.
func (w *MovingNoSlip) Apply(l *core.Lattice) {
	cells := l.FaceLayerCells(w.Face, 1)
	for _, halo := range cells {
		if l.Flags[halo] != core.MovingWall {
			x, y, z := l.Coords(halo)
			l.SetMovingWall(x, y, z, w.U[0], w.U[1], w.U[2])
		}
	}
}

// FreeSlip is a specular-reflection plane: the halo receives the interior
// populations with the face-normal velocity component mirrored, producing
// zero normal flux but no tangential drag.
type FreeSlip struct {
	Face core.Face
}

// Name implements Condition.
func (fs *FreeSlip) Name() string { return fmt.Sprintf("free-slip(%v)", fs.Face) }

// Apply implements Condition.
//
// Per-slot traffic: two table reads + one population read + one write.
//
//lbm:hot traffic budget=32 assume q=19
func (fs *FreeSlip) Apply(l *core.Lattice) {
	axis := 0
	switch fs.Face {
	case core.FaceYMin, core.FaceYMax:
		axis = 1
	case core.FaceZMin, core.FaceZMax:
		axis = 2
	}
	mirror := mirrorTable(l.Desc, axis)
	src := l.Src()
	q := l.Desc.Q
	t := slotsOf(l, fs.Face)
	n := len(t.cells)
	for i := 0; i < q; i++ {
		from := t.inner[mirror[i]*n : mirror[i]*n+n]
		for k, s := range t.halo[i*n : i*n+n] {
			src[s] = src[from[k]]
		}
	}
	t.ghost(l)
}

// Periodic wraps one axis (0=x, 1=y, 2=z) periodically each step.
type Periodic struct {
	Axis int
}

// Name implements Condition.
func (p *Periodic) Name() string { return fmt.Sprintf("periodic(axis=%d)", p.Axis) }

// Apply implements Condition.
func (p *Periodic) Apply(l *core.Lattice) { l.PeriodicAxis(p.Axis) }

// mirrorTable returns, for each direction i, the direction whose velocity
// equals c_i with the given axis component negated.
func mirrorTable(d *lattice.Descriptor, axis int) []int {
	m := make([]int, d.Q)
	for i := 0; i < d.Q; i++ {
		want := d.C[i]
		want[axis] = -want[axis]
		m[i] = -1
		for j := 0; j < d.Q; j++ {
			if d.C[j] == want {
				m[i] = j
				break
			}
		}
		if m[i] < 0 {
			// All standard descriptors are closed under axis
			// mirroring; this is unreachable for them.
			panic(fmt.Sprintf("boundary: %s not closed under axis-%d mirror", d.Name, axis))
		}
	}
	return m
}
