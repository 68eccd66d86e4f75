package core

import "math"

// D3Q19-specialised AA kernels. The key structural trick: at both
// parities, the scatter slot of population i for a row of cells is
// exactly the gather slice of population Opp[i] for the same row —
//
//	even: gather_i    = src[i*n + idx − off[i]]
//	      scatter_i   = src[Opp[i]*n + idx + off[i]] = gather_{Opp[i]}
//	odd:  gather_i    = src[Opp[i]*n + idx]
//	      scatter_i   = src[i*n + idx]               = gather_{Opp[i]}
//
// (using off[Opp[i]] = −off[i]). So one shared row body, aaRowD3Q19,
// serves both parities: the caller prepares the 19 gather slices for its
// phase, and the body loads f_i from g[i][k] and stores the relaxed
// population i into g[Opp[i]][k]. Per cell it touches the scatter slot
// only after gathering the cell's full stencil, and no other cell ever
// reads a slot this cell writes (the AA disjointness invariant, see
// aa.go), so the in-place row sweep is exact in any order.
//
// Hoisting each direction's row into a slice gives the inner z loop
// constant-bound indexing (bounds checks hoisted), contiguous streaming
// loads/stores, and none of the per-cell neighbour-flag probing of the
// double-buffer fast path: the cells of a row outside its clean span —
// non-fluid cells and cells with a wall in their stencil — take the
// generic AA kernel instead, preserving bit-identity.

// aaCleanSpan scans interior row (x, y) for its longest run [lo, hi) of
// cells the unrolled kernels may take: fluid cells with no Wall or
// MovingWall anywhere in their gather stencil (conservatively, the nine
// neighbouring z-rows at z−1, z and z+1). Cells outside the run — walls
// at the row's ends, such as a no-slip z face, or obstacles — go through
// the flag-aware generic kernel; the kernels ask through cleanSpan,
// which caches the run per row until a flag changes (the geometry is
// static, so each row is scanned once).
func (l *Lattice) aaCleanSpan(x, y int) (lo, hi int) {
	flags := l.Flags
	base := l.Idx(x, y, 0)
	rowStride, planeStride := l.AZ, l.AX*l.AZ
	wallAt := func(z int) bool {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if fl := flags[base+dy*planeStride+dx*rowStride+z]; fl == Wall || fl == MovingWall {
					return true
				}
			}
		}
		return false
	}
	prev, cur := wallAt(-1), wallAt(0)
	start := -1
	for z := 0; z < l.NZ; z++ {
		next := wallAt(z + 1)
		if flags[base+z] == Fluid && !prev && !cur && !next {
			if start < 0 {
				start = z
			}
			if z+1-start > hi-lo {
				lo, hi = start, z+1
			}
		} else {
			start = -1
		}
		prev, cur = cur, next
	}
	return lo, hi
}

// stepAAEvenD3Q19 is the unrolled even-phase AA kernel: double-buffer
// pull gather, reversed-shifted scatter, per z-row over hoisted slices;
// the parts of a row outside its clean span take the generic kernel.
//
// Per-cell traffic on the clean path: 19 pulls + 19 pushes of float64
// within the single AA array — below the two-buffer 380 B/cell budget
// because the second stream of write-allocated destination lines is
// gone.
//
//lbm:hot traffic budget=360
func (l *Lattice) stepAAEvenD3Q19(x0, x1, y0, y1, z0, z1 int) {
	src := l.F[l.src]
	n := l.N
	nTau := -1.0 / l.Tau
	if z1 <= z0 {
		return
	}
	var off [19]int
	copy(off[:], l.offs)
	var g [19][]float64
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			lo, hi := l.cleanSpan(x, y, z0, z1)
			if lo >= hi {
				l.stepAAEvenGeneric(x, x+1, y, y+1, z0, z1)
				continue
			}
			if z0 < lo {
				l.stepAAEvenGeneric(x, x+1, y, y+1, z0, lo)
			}
			nz := hi - lo
			rowBase := l.Idx(x, y, lo)
			for i := 0; i < 19; i++ {
				b := i*n + rowBase - off[i]
				g[i] = src[b : b+nz]
			}
			aaRowD3Q19(&g, nz, nTau)
			if hi < z1 {
				l.stepAAEvenGeneric(x, x+1, y, y+1, hi, z1)
			}
		}
	}
}

// stepAAOddD3Q19 is the unrolled odd-phase AA kernel: gather from the
// cell's own reversed-shifted slots, natural write-back.
//
//lbm:hot traffic budget=360
func (l *Lattice) stepAAOddD3Q19(x0, x1, y0, y1, z0, z1 int) {
	src := l.F[l.src]
	n := l.N
	nTau := -1.0 / l.Tau
	d := l.Desc
	if z1 <= z0 {
		return
	}
	var g [19][]float64
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			lo, hi := l.cleanSpan(x, y, z0, z1)
			if lo >= hi {
				l.stepAAOddGeneric(x, x+1, y, y+1, z0, z1)
				continue
			}
			if z0 < lo {
				l.stepAAOddGeneric(x, x+1, y, y+1, z0, lo)
			}
			nz := hi - lo
			rowBase := l.Idx(x, y, lo)
			for i := 0; i < 19; i++ {
				b := d.Opp[i]*n + rowBase
				g[i] = src[b : b+nz]
			}
			aaRowD3Q19(&g, nz, nTau)
			if hi < z1 {
				l.stepAAOddGeneric(x, x+1, y, y+1, hi, z1)
			}
		}
	}
}

// aaRowD3Q19 collide-streams one clean (all-fluid stencil) row of nz
// cells in place: f_i comes from g[i][k] and the relaxed population i is
// stored into g[Opp[i]][k]. When the CPU supports AVX-512F the bulk of
// the row runs 8 cells wide in aaRowD3Q19AVX512 — the vector kernel
// executes the identical per-lane operation order, so its results stay
// bit-identical to the scalar canon — and aaRowD3Q19Scalar sweeps the
// nz mod 8 tail.
func aaRowD3Q19(g *[19][]float64, nz int, nTau float64) {
	lo := 0
	if useAVX512 && nz >= 8 {
		blocks := nz / 8
		aaRowD3Q19AVX512(g, blocks, nTau, &aaKTab)
		lo = blocks * 8
	}
	if lo < nz {
		aaRowD3Q19Scalar(g, lo, nz, nTau)
	}
}

// aaRowD3Q19Scalar is the scalar row body for cells [lo, hi). The
// floating-point operation order is exactly that of stepRegionD3Q19
// (itself exactly the generic kernel's), so the results are
// bit-identical to the double-buffer reference.
//
// Per-cell traffic: 19 float64 loads + 19 float64 stores in one array.
//
//lbm:hot traffic budget=360
func aaRowD3Q19Scalar(g *[19][]float64, lo, hi int, nTau float64) {
	g0 := g[0][:hi]
	g1 := g[1][:hi]
	g2 := g[2][:hi]
	g3 := g[3][:hi]
	g4 := g[4][:hi]
	g5 := g[5][:hi]
	g6 := g[6][:hi]
	g7 := g[7][:hi]
	g8 := g[8][:hi]
	g9 := g[9][:hi]
	g10 := g[10][:hi]
	g11 := g[11][:hi]
	g12 := g[12][:hi]
	g13 := g[13][:hi]
	g14 := g[14][:hi]
	g15 := g[15][:hi]
	g16 := g[16][:hi]
	g17 := g[17][:hi]
	g18 := g[18][:hi]
	for k := lo; k < hi; k++ {
		f0 := g0[k]
		f1 := g1[k]
		f2 := g2[k]
		f3 := g3[k]
		f4 := g4[k]
		f5 := g5[k]
		f6 := g6[k]
		f7 := g7[k]
		f8 := g8[k]
		f9 := g9[k]
		f10 := g10[k]
		f11 := g11[k]
		f12 := g12[k]
		f13 := g13[k]
		f14 := g14[k]
		f15 := g15[k]
		f16 := g16[k]
		f17 := g17[k]
		f18 := g18[k]

		rho := f0 + f1 + f2 + f3 + f4 + f5 + f6 +
			f7 + f8 + f9 + f10 + f11 + f12 + f13 +
			f14 + f15 + f16 + f17 + f18
		jx := f1 - f2 + f7 - f8 + f9 - f10 + f11 - f12 + f13 - f14
		jy := f3 - f4 + f7 - f8 - f9 + f10 + f15 - f16 + f17 - f18
		jz := f5 - f6 + f11 - f12 - f13 + f14 + f15 - f16 - f17 + f18
		invRho := 1.0 / rho
		ux, uy, uz := jx*invRho, jy*invRho, jz*invRho
		onem := 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))
		wr1, wr2 := w1*rho, w2*rho

		// Canonical FMA collide (see lattice.Equilibrium); each ±
		// direction pair shares the symmetric part s of its two
		// equilibria, and the relaxed population i lands in slice
		// Opp[i] (1↔2, 3↔4, 5↔6, 7↔8, 9↔10, 11↔12, 13↔14, 15↔16,
		// 17↔18), which is the AA scatter for both parities.
		g0[k] = math.FMA(nTau, f0-w0*rho*onem, f0)
		cu := ux
		h := 4.5 * cu
		s := math.FMA(h, cu, onem)
		c3 := 3 * cu
		g2[k] = math.FMA(nTau, f1-wr1*(s+c3), f1)
		g1[k] = math.FMA(nTau, f2-wr1*(s-c3), f2)
		cu = uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g4[k] = math.FMA(nTau, f3-wr1*(s+c3), f3)
		g3[k] = math.FMA(nTau, f4-wr1*(s-c3), f4)
		cu = uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g6[k] = math.FMA(nTau, f5-wr1*(s+c3), f5)
		g5[k] = math.FMA(nTau, f6-wr1*(s-c3), f6)
		cu = ux + uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g8[k] = math.FMA(nTau, f7-wr2*(s+c3), f7)
		g7[k] = math.FMA(nTau, f8-wr2*(s-c3), f8)
		cu = ux - uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g10[k] = math.FMA(nTau, f9-wr2*(s+c3), f9)
		g9[k] = math.FMA(nTau, f10-wr2*(s-c3), f10)
		cu = ux + uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g12[k] = math.FMA(nTau, f11-wr2*(s+c3), f11)
		g11[k] = math.FMA(nTau, f12-wr2*(s-c3), f12)
		cu = ux - uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g14[k] = math.FMA(nTau, f13-wr2*(s+c3), f13)
		g13[k] = math.FMA(nTau, f14-wr2*(s-c3), f14)
		cu = uy + uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g16[k] = math.FMA(nTau, f15-wr2*(s+c3), f15)
		g15[k] = math.FMA(nTau, f16-wr2*(s-c3), f16)
		cu = uy - uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g18[k] = math.FMA(nTau, f17-wr2*(s+c3), f17)
		g17[k] = math.FMA(nTau, f18-wr2*(s-c3), f18)
	}
}
