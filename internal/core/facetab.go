package core

// Slot tables of the face layers. Every halo operation — the periodic
// wrap, face pack/unpack and the boundary package's face conditions —
// walks one-cell-thick face layers and addresses their populations
// through the storage map of the current phase (natural for A–B lattices
// and even AA parity, reversed-shifted for odd AA parity; see aa.go).
// Instead of evaluating that map per population per step, each layer's
// slots are tabulated once per lattice, on first use — for both phases
// at once on AA lattices — and the per-step loops become straight copies
// through the tables. The natural table serves A–B lattices and even AA
// parity alike; the odd table is only built for AA lattices (on a
// lattice switched by EnableAA after its first halo operation, at the
// first odd-parity use), so EnableAA needs no rebuild.
//
// The tables are lattice state, not synchronised: like every other
// lattice mutation, halo operations on one lattice run on one goroutine
// at a time.

// faceTables caches the face-layer tables of one lattice.
type faceTables struct {
	// cells[f][layer] lists the allocated cell indices of one face layer
	// (layer 0 = interior boundary layer, 1 = halo) in FaceCells order:
	// y, then x, then z, over the full allocated extent of the
	// tangential axes. Phase-independent.
	cells [numFaces][2][]int
	// slots[phase][f][layer][i*n+k] is the Src() index of logical
	// population i of the k-th of the n cells of cells[f][layer]
	// (population-major: consecutive entries walk one population plane
	// along the face, which keeps copies within a few cache lines).
	slots [2][numFaces][2][]int
	// wire[phase][f][dir] lists the Src() indices PackFace reads (dir 0:
	// populations leaving through f from layer 0) or UnpackFace writes
	// (dir 1: populations entering through f into layer 1), population-
	// major in ascending population index.
	wire [2][numFaces][2][]int
}

// phase indexes the slot tables: 1 at odd AA parity, 0 otherwise.
func (l *Lattice) phase() int {
	if l.aaOddPhase() {
		return 1
	}
	return 0
}

// tablePhases lists the phases a table is built for on first use: both
// for AA lattices, which alternate phases every step (so the first step
// sets up everything the steady state uses), the natural one otherwise.
func (l *Lattice) tablePhases() []int {
	if l.aa {
		return []int{0, 1}
	}
	return []int{0}
}

// faceAxis returns the axis a face is normal to and the sign of its
// outward normal.
func faceAxis(f Face) (axis, sign int) {
	axis = int(f) / 2
	sign = -1
	if f%2 == 1 {
		sign = 1
	}
	return axis, sign
}

// crossing lists, ascending, the populations that cross face f: those
// leaving the lattice through it (dir 0, c·n > 0 for the outward normal
// n) or entering it (dir 1, c·n < 0). Both lists have the same length,
// and the list a sender packs at face f equals the list its neighbour
// unpacks at the opposite face.
func (l *Lattice) crossing(f Face, dir int) []int {
	axis, sign := faceAxis(f)
	var out []int
	for i := 0; i < l.Desc.Q; i++ {
		v := l.Desc.C[i][axis] * sign
		if (dir == 0 && v > 0) || (dir == 1 && v < 0) {
			out = append(out, i)
		}
	}
	return out
}

// layerCells returns (building on first use) the cell list of one face
// layer.
func (l *Lattice) layerCells(f Face, layer int) []int {
	if c := l.tabs.cells[f][layer]; c != nil {
		return c
	}
	x0, x1, y0, y1, z0, z1 := l.faceRange(f, layer)
	c := make([]int, 0, (x1-x0)*(y1-y0)*(z1-z0))
	for ay := y0; ay < y1; ay++ {
		for ax := x0; ax < x1; ax++ {
			for az := z0; az < z1; az++ {
				c = append(c, (ay*l.AX+ax)*l.AZ+az)
			}
		}
	}
	l.tabs.cells[f][layer] = c
	return c
}

// layerSlots returns (building on first use) the full slot table of one
// face layer under the current storage phase.
func (l *Lattice) layerSlots(f Face, layer int) []int {
	p := l.phase()
	if s := l.tabs.slots[p][f][layer]; s != nil {
		return s
	}
	all := make([]int, l.Desc.Q)
	for i := range all {
		all[i] = i
	}
	for _, ph := range l.tablePhases() {
		l.tabs.slots[ph][f][layer] = l.buildSlots(f, layer, all, ph == 1)
	}
	return l.tabs.slots[p][f][layer]
}

// wireSlots returns (building on first use) the crossing-only slot list
// of face f under the current storage phase: dir 0 for PackFace, dir 1
// for UnpackFace.
func (l *Lattice) wireSlots(f Face, dir int) []int {
	p := l.phase()
	if w := l.tabs.wire[p][f][dir]; w != nil {
		return w
	}
	cross := l.crossing(f, dir)
	for _, ph := range l.tablePhases() {
		l.tabs.wire[ph][f][dir] = l.buildSlots(f, dir, cross, ph == 1)
	}
	return l.tabs.wire[p][f][dir]
}

// buildSlots tabulates, population-major, the slot of each population in
// pops for every cell of one face layer (in layerCells order): the
// natural slot i*N+idx, or under the odd AA map (odd set) slot Opp[i] of
// the shifted cell idx+c_i where that cell is allocated and the natural
// slot otherwise — PopIndex's map, evaluated with the layer's
// coordinates in hand instead of recovering them per population.
func (l *Lattice) buildSlots(f Face, layer int, pops []int, odd bool) []int {
	x0, x1, y0, y1, z0, z1 := l.faceRange(f, layer)
	n := (x1 - x0) * (y1 - y0) * (z1 - z0)
	out := make([]int, len(pops)*n)
	for j, i := range pops {
		c := l.Desc.C[i]
		nat, shifted := i*l.N, l.Desc.Opp[i]*l.N+l.offs[i]
		row := out[j*n : j*n+n]
		k := 0
		for ay := y0; ay < y1; ay++ {
			yIn := odd && ay+c[1] >= 0 && ay+c[1] < l.AY
			for ax := x0; ax < x1; ax++ {
				xyIn := yIn && ax+c[0] >= 0 && ax+c[0] < l.AX
				idx := (ay*l.AX+ax)*l.AZ + z0
				for az := z0; az < z1; az++ {
					base := nat
					if xyIn && az+c[2] >= 0 && az+c[2] < l.AZ {
						base = shifted
					}
					row[k] = base + idx
					k++
					idx++
				}
			}
		}
	}
	return out
}

// FaceSlots returns the slot table of one face layer under the current
// storage phase: cells[k] is the allocated index of the k-th of the n
// cells of the layer (layer 0 = interior boundary layer, 1 = halo; the
// full allocated plane, in FaceCells order) and slots[i*n+k] is the Src()
// index of its logical population i. Layer 0 cell k is the inward
// neighbour of layer 1 cell k. The tables are built on first use and
// cached; callers must not modify them, and must fetch them again after
// the step counter changes parity.
func (l *Lattice) FaceSlots(f Face, layer int) (cells, slots []int) {
	return l.layerCells(f, layer), l.layerSlots(f, layer)
}

// FaceLayerCells returns the cell list of one face layer — FaceSlots
// without the population slots, for callers that touch only flags.
func (l *Lattice) FaceLayerCells(f Face, layer int) []int { return l.layerCells(f, layer) }

// SetFlag sets the classification of the allocated cell idx (halo cells
// included). Writes that change a flag invalidate the kernels' cached
// per-row clean spans; rewriting the same value costs nothing.
func (l *Lattice) SetFlag(idx int, t CellType) {
	if l.Flags[idx] != t {
		l.Flags[idx] = t
		l.flagGen++
	}
}

// FlagsChanged invalidates geometry-derived caches after direct writes
// into Flags. Code that assigns l.Flags[i] on a lattice that has already
// stepped must call it (or write through SetFlag) before the next step.
func (l *Lattice) FlagsChanged() { l.flagGen++ }

// aaSpan is one row's cached clean span (see aaCleanSpan); known is
// false until the row is scanned under the current flag generation.
type aaSpan struct {
	lo, hi int32
	known  bool
}

// syncRowCache drops the cached clean spans when a flag changed since
// they were computed. Step drivers call it before any worker reads the
// cache, so workers only ever fill entries of their own rows.
func (l *Lattice) syncRowCache() {
	if l.rowSpan != nil && l.rowGen == l.flagGen {
		return
	}
	if l.rowSpan == nil {
		l.rowSpan = make([]aaSpan, l.NX*l.NY)
	} else {
		clear(l.rowSpan)
	}
	l.rowGen = l.flagGen
}

// cleanSpan returns interior row (x, y)'s clean span clipped to the z
// segment [z0, z1) (lo ≥ hi when empty), scanning the row on first use
// per flag generation.
func (l *Lattice) cleanSpan(x, y, z0, z1 int) (lo, hi int) {
	k := y*l.NX + x
	s := l.rowSpan[k]
	if !s.known {
		a, b := l.aaCleanSpan(x, y)
		s = aaSpan{lo: int32(a), hi: int32(b), known: true}
		l.rowSpan[k] = s
	}
	return max(int(s.lo), z0), min(int(s.hi), z1)
}
