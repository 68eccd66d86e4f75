package core

// Face identifies one of the six axis-aligned faces of the domain block.
type Face int

const (
	FaceXMin Face = iota
	FaceXMax
	FaceYMin
	FaceYMax
	FaceZMin
	FaceZMax
	numFaces
)

// String implements fmt.Stringer.
func (f Face) String() string {
	switch f {
	case FaceXMin:
		return "x-"
	case FaceXMax:
		return "x+"
	case FaceYMin:
		return "y-"
	case FaceYMax:
		return "y+"
	case FaceZMin:
		return "z-"
	case FaceZMax:
		return "z+"
	}
	return "?"
}

// PeriodicAll copies the interior boundary layers of the current buffer
// into the opposite halo layers for all three axes, including the edge and
// corner cells (copied transitively by doing the axes in sequence over the
// full allocated extent). Halo cells also inherit the Fluid flag wherever
// the wrapped-around source cell is Fluid, so streaming pulls through the
// periodic image correctly.
func (l *Lattice) PeriodicAll() {
	l.PeriodicAxis(0)
	l.PeriodicAxis(1)
	l.PeriodicAxis(2)
}

// PeriodicAxis wraps the halo of one axis (0=x, 1=y, 2=z) periodically.
// The copy spans the entire allocated extent of the other two axes so that
// successive calls for different axes fill edges and corners correctly.
//
// The wrap copies whole cells — all Q populations, not only those that
// cross the face (compare PackFace): face boundary conditions applied
// after a wrap read the wrapped halo cells as their inward neighbours
// (psolve wraps z before its x/y face conditions, and a boundary.Set
// lists Periodic before, say, a PressureOutlet), so every population of
// a wrapped cell must be current.
func (l *Lattice) PeriodicAxis(axis int) {
	lo, hi := Face(2*axis), Face(2*axis+1)
	wrapSlots(l.F[l.src], l.layerSlots(lo, 1), l.layerSlots(hi, 0),
		l.layerSlots(hi, 1), l.layerSlots(lo, 0))
	l.wrapFlags(lo, hi)
	l.wrapFlags(hi, lo)
}

// wrapSlots copies s[loSrc[t]] into s[loDst[t]] and s[hiSrc[t]] into
// s[hiDst[t]] for every table entry: both directions of one axis' wrap
// in one pass. The tables are the slot tables of the current storage
// phase, so the natural, A–B and odd AA layouts share this one straight
// copy. Source
// and destination (population, cell) pairs are disjoint (interior
// boundary layers vs halo layers) and the slot map is a bijection, so the
// in-place copy is order-safe.
//
// Per-entry traffic: four table reads + two population reads + two
// population writes.
//
//lbm:hot traffic budget=64
func wrapSlots(s []float64, loDst, loSrc, hiDst, hiSrc []int) {
	loSrc = loSrc[:len(loDst)]
	hiDst = hiDst[:len(loDst)]
	hiSrc = hiSrc[:len(loDst)]
	for t, d := range loDst {
		s[d] = s[loSrc[t]]
		s[hiDst[t]] = s[hiSrc[t]]
	}
}

// wrapFlags copies every non-Ghost flag of the interior boundary layer
// at face from into the halo layer at face dst.
func (l *Lattice) wrapFlags(dst, from Face) {
	dc := l.layerCells(dst, 1)
	sc := l.layerCells(from, 0)
	sc = sc[:len(dc)]
	for k, c := range dc {
		if f := l.Flags[sc[k]]; f != Ghost {
			l.SetFlag(c, f)
		}
	}
}

// faceRange returns the coordinate ranges (in allocated coordinates) of a
// one-cell-thick layer at the given face. layer=0 selects the interior
// boundary layer (what gets sent), layer=1 selects the halo layer (what
// gets received). The ranges cover the full allocated extent of the
// tangential axes so that diagonal neighbours are satisfied after the x
// and y exchanges run in sequence.
func (l *Lattice) faceRange(f Face, layer int) (x0, x1, y0, y1, z0, z1 int) {
	x0, x1, y0, y1, z0, z1 = 0, l.AX, 0, l.AY, 0, l.AZ
	switch f {
	case FaceXMin:
		x0, x1 = 1, 2
		if layer == 1 {
			x0, x1 = 0, 1
		}
	case FaceXMax:
		x0, x1 = l.AX-2, l.AX-1
		if layer == 1 {
			x0, x1 = l.AX-1, l.AX
		}
	case FaceYMin:
		y0, y1 = 1, 2
		if layer == 1 {
			y0, y1 = 0, 1
		}
	case FaceYMax:
		y0, y1 = l.AY-2, l.AY-1
		if layer == 1 {
			y0, y1 = l.AY-1, l.AY
		}
	case FaceZMin:
		z0, z1 = 1, 2
		if layer == 1 {
			z0, z1 = 0, 1
		}
	case FaceZMax:
		z0, z1 = l.AZ-2, l.AZ-1
		if layer == 1 {
			z0, z1 = l.AZ-1, l.AZ
		}
	}
	return
}

// FaceCells returns the number of cells in one face layer (including the
// tangential halo extent), i.e. the element count of a packed face buffer
// divided by Q.
func (l *Lattice) FaceCells(f Face) int {
	x0, x1, y0, y1, z0, z1 := l.faceRange(f, 0)
	return (x1 - x0) * (y1 - y0) * (z1 - z0)
}

// WireLen returns the number of float64s PackFace writes for face f and
// UnpackFace reads for it: FaceCells(f) times the number of populations
// that cross the face (5 of 19 for D3Q19).
func (l *Lattice) WireLen(f Face) int { return len(l.wireSlots(f, 0)) }

// PackFace serialises the interior boundary layer at face f into buf: only
// the populations that leave the lattice through f (c·n > 0 for the
// outward normal n), the only ones a neighbour's kernel pulls from its
// halo. buf needs WireLen(f) elements; a Q*FaceCells(f) buffer is always
// large enough. The wire order is population-major in ascending
// population index, then cell in FaceCells order, independent of the
// storage phase, so pack/unpack pairs compose across ranks at different
// phases. flags, if non-nil (length ≥ FaceCells(f)), receives the layer's
// cell flags so the receiver can mirror obstacles touching the subdomain
// boundary — geometry is static, so senders need them only once.
//
// A crossing-only halo is complete for the kernel, but not for face
// boundary conditions that read halo cells as inward neighbours: an
// exchange that runs before them must move whole cells (PackLayer).
func (l *Lattice) PackFace(f Face, buf []float64, flags []CellType) {
	gatherSlots(buf, l.F[l.src], l.wireSlots(f, 0))
	l.packFlags(f, flags)
}

// UnpackFace writes a buffer packed by a neighbour's PackFace at the
// opposite face into the halo layer at face f: the populations that enter
// the lattice through f, in PackFace's wire order. The halo's other
// populations are left as they are — no kernel reads them. Flags, if
// non-nil, update the halo cell classification (so walls spanning
// subdomain boundaries bounce correctly); Ghost flags in the packed data
// are preserved as Ghost.
func (l *Lattice) UnpackFace(f Face, buf []float64, flags []CellType) {
	scatterSlots(l.F[l.src], buf, l.wireSlots(f, 1))
	l.unpackFlags(f, flags)
}

// PackLayer is PackFace for whole cells: all Q populations of every cell
// of the interior boundary layer at face f, population-major
// (Q*FaceCells(f) elements), for exchanges that run before face boundary
// conditions —
// those read the received halo cells as inward neighbours, so every
// population must be current, as in PeriodicAxis.
func (l *Lattice) PackLayer(f Face, buf []float64, flags []CellType) {
	gatherSlots(buf, l.F[l.src], l.layerSlots(f, 0))
	l.packFlags(f, flags)
}

// UnpackLayer writes a buffer packed by a neighbour's PackLayer at the
// opposite face into the halo layer at face f, whole cells.
func (l *Lattice) UnpackLayer(f Face, buf []float64, flags []CellType) {
	scatterSlots(l.F[l.src], buf, l.layerSlots(f, 1))
	l.unpackFlags(f, flags)
}

// gatherSlots copies src[tab[t]] into buf[t] for every table entry: the
// straight copy behind every pack.
//
// Per-slot traffic: one table read + one population read + one buffer
// write.
//
//lbm:hot traffic budget=24
func gatherSlots(buf, src []float64, tab []int) {
	buf = buf[:len(tab)]
	for t, s := range tab {
		buf[t] = src[s]
	}
}

// scatterSlots copies buf[t] into src[tab[t]] for every table entry: the
// straight copy behind every unpack.
//
// Per-slot traffic: one table read + one buffer read + one population
// write.
//
//lbm:hot traffic budget=24
func scatterSlots(src, buf []float64, tab []int) {
	buf = buf[:len(tab)]
	for t, s := range tab {
		src[s] = buf[t]
	}
}

// packFlags copies the flags of the interior boundary layer at face f
// into flags (nil skips).
func (l *Lattice) packFlags(f Face, flags []CellType) {
	if flags == nil {
		return
	}
	cells := l.layerCells(f, 0)
	flags = flags[:len(cells)]
	for k, c := range cells {
		flags[k] = l.Flags[c]
	}
}

// unpackFlags mirrors received flags into the halo layer at face f,
// keeping Ghost where the sender's cell is Ghost (nil skips).
func (l *Lattice) unpackFlags(f Face, flags []CellType) {
	if flags == nil {
		return
	}
	cells := l.layerCells(f, 1)
	flags = flags[:len(cells)]
	for k, c := range cells {
		if fl := flags[k]; fl != Ghost {
			l.SetFlag(c, fl)
		}
	}
}
