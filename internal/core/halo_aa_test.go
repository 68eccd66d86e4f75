package core

import (
	"math"
	"testing"
)

// TestPackFaceWireFormatPhaseIndependent packs every face of an AA
// lattice and its bit-identical double-buffer twin after each of the
// first two steps (even and odd storage parity) and requires the wire
// buffers to match bit-exactly on fluid cells: the packed format is the
// crossing populations in logical order regardless of the sender's
// storage phase, so pack/unpack pairs compose across ranks at different
// phases.
func TestPackFaceWireFormatPhaseIndependent(t *testing.T) {
	ref, aa := buildPair(t, 6, 5, 7, 0.8, false)
	for step := 1; step <= 2; step++ {
		ref.PeriodicAll()
		aa.PeriodicAll()
		ref.StepFused()
		aa.StepFused()
		// Refresh the halo so the tangential halo extent of each face
		// layer is well-defined (as the distributed drivers do before
		// packing); the storage parity of the step is unaffected.
		ref.PeriodicAll()
		aa.PeriodicAll()
		parity := []string{"even", "odd"}[step%2]
		for f := FaceXMin; f < numFaces; f++ {
			nc := ref.FaceCells(f)
			q := ref.Desc.Q
			bufR := make([]float64, q*nc)
			bufA := make([]float64, q*nc)
			flagsR := make([]CellType, nc)
			flagsA := make([]CellType, nc)
			ref.PackFace(f, bufR, flagsR)
			aa.PackFace(f, bufA, flagsA)
			for k := 0; k < nc; k++ {
				if flagsR[k] != flagsA[k] {
					t.Fatalf("step %d (%s parity) face %v cell %d: flag %v (ref) != %v (aa)",
						step, parity, f, k, flagsR[k], flagsA[k])
				}
				if flagsR[k] != Fluid {
					continue // non-fluid populations are undefined
				}
				for j, i := range ref.crossing(f, 0) {
					r, a := bufR[j*nc+k], bufA[j*nc+k]
					if math.Float64bits(r) != math.Float64bits(a) {
						t.Fatalf("step %d (%s parity) face %v cell %d pop %d: %v (ref) != %v (aa)",
							step, parity, f, k, i, r, a)
					}
				}
			}
		}
	}
}

// TestPackUnpackFaceAAOddParity transfers an AA sender's x+ boundary
// into an AA receiver's x- halo while both sit at odd storage parity
// (the reversed-shifted layout), then checks the receiver's logical
// halo populations that cross the face and its flags against the
// sender's boundary — the odd-parity analogue of
// TestPackUnpackFaceRoundTrip, exercising the odd-phase wire tables
// including the natural-slot fallback for halo cells whose shifted home
// leaves the allocation.
func TestPackUnpackFaceAAOddParity(t *testing.T) {
	mk := func() *Lattice {
		l := newTestLattice(t, 6, 5, 4, 0.8)
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				for z := 0; z < l.NZ; z++ {
					l.SetCell(x, y, z, 1+0.01*float64(x+2*y+3*z),
						0.01*float64(x), 0.01*float64(y), 0.01*float64(z))
				}
			}
		}
		l.SetWall(5, 2, 2) // wall on the x+ boundary layer
		l.EnableAA()
		l.PeriodicAll()
		l.StepFused() // step 1: odd parity
		return l
	}
	a, b := mk(), mk()
	if !a.aaOddPhase() {
		t.Fatal("sender must be at odd AA parity")
	}
	nc := a.FaceCells(FaceXMax)
	buf := make([]float64, a.Desc.Q*nc)
	flags := make([]CellType, nc)
	a.PackFace(FaceXMax, buf, flags)
	b.UnpackFace(FaceXMin, buf, flags)
	var fa []float64
	for y := 0; y < a.NY; y++ {
		for z := 0; z < a.NZ; z++ {
			if a.Flags[a.Idx(a.NX-1, y, z)] != Fluid {
				continue
			}
			fa = a.Populations(a.NX-1, y, z, fa)
			ib := b.Idx(-1, y, z)
			for _, q := range b.crossing(FaceXMin, 1) {
				got := b.Src()[b.PopIndex(q, ib)]
				if math.Float64bits(got) != math.Float64bits(fa[q]) {
					t.Fatalf("halo mismatch at y=%d z=%d q=%d: %v != %v", y, z, q, got, fa[q])
				}
			}
		}
	}
	if b.Flags[b.Idx(-1, 2, 2)] != Wall {
		t.Error("wall flag must propagate through odd-parity pack/unpack")
	}
}
