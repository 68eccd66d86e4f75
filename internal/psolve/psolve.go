// Package psolve is the distributed LBM solver: it combines the core
// kernel, the 2-D domain decomposition and the mpi runtime into multi-rank
// simulations with halo exchange, in both the sequential scheme (exchange,
// then compute — Fig. 6(1)) and the paper's on-the-fly scheme (overlap the
// inner-region computation with communication, then finish the boundary
// strips — Fig. 6(2)). Both schemes produce bit-identical states; they
// differ only in when communication happens relative to computation, which
// is what the performance model in internal/scaling charges for.
package psolve

import (
	"fmt"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/trace"
)

// Exchange tags: one per face direction so streams never mix.
const (
	tagXPlus = iota + 1
	tagXMinus
	tagYPlus
	tagYMinus
)

// Options configures a distributed run.
type Options struct {
	// Global interior dimensions.
	GNX, GNY, GNZ int
	// Process grid (PX·PY ranks).
	PX, PY int
	// Tau is the LBGK relaxation time; Smagorinsky enables LES.
	Tau         float64
	Smagorinsky float64
	// Force is the body-force density (Guo scheme).
	Force [3]float64
	// PeriodicX/Y wrap the decomposed axes through neighbour exchange;
	// PeriodicZ wraps the undecomposed axis locally.
	PeriodicX, PeriodicY, PeriodicZ bool
	// FaceBC supplies boundary conditions for non-periodic global faces.
	// Conditions for X/Y faces are applied only by edge ranks; Z faces
	// by every rank. Nil entries leave the halo as-is.
	FaceBC map[core.Face]boundary.Condition
	// Walls marks global cells as solid obstacles at initialisation.
	Walls func(gx, gy, gz int) bool
	// Init supplies the initial macroscopic state per global cell;
	// nil means ρ=1, u=0.
	Init func(gx, gy, gz int) (rho, ux, uy, uz float64)
	// OnTheFly selects the overlapped halo-exchange scheme.
	OnTheFly bool
	// Kernel selects the local compute kernel: "" (the default) is the
	// in-place AA-pattern kernel (single distribution array, both
	// storage phases handled by the halo tables and checkpoint paths) —
	// except for ranks driven by a custom Stepper, which keep the A–B
	// double buffer their engines model; "fused" forces the A–B
	// double-buffer pull kernel (the differential reference).
	Kernel string
	// Restore, if non-nil, initialises each rank's sub-block from this
	// global lattice (e.g. one read back by swio.ReadCheckpoint),
	// overriding Walls and Init.
	Restore *core.Lattice
	// Stepper, if non-nil, builds a custom kernel driver per rank (e.g.
	// the simulated Sunway engine from internal/swlb), reproducing the
	// paper's full MPI+Athread stack. The sequential halo-exchange
	// scheme is used around it. Rebuild is called once after the first
	// halo exchange so the driver sees the final wall flags.
	Stepper func(lat *core.Lattice) (Stepper, error)
	// Trace, if non-nil, records per-rank timelines (steps, halo
	// exchange, compute phases). Run installs it on the world it
	// creates; supervised runs install it through SupervisorOptions.
	Trace *trace.Tracer
}

// traceSetter is implemented by steppers that can record their internal
// phases (CPE/MPE kernels, DMA counters, GPU copies) onto the rank's
// timeline. New type-asserts it so Options.Stepper needs no signature
// change.
type traceSetter interface {
	SetTrace(tr *trace.RankTracer)
}

// Stepper advances the local lattice one time step (halos already
// exchanged) and returns a simulated or measured step time.
type Stepper interface {
	Step() float64
	// Rebuild refreshes any geometry-derived state after flags change.
	Rebuild()
}

// Solver is the per-rank state of a distributed simulation.
type Solver struct {
	Opts  Options
	Comm  *mpi.Comm
	Cart  *mpi.Cart2D
	Block decomp.Block
	Lat   *core.Lattice

	bcs []faceBC

	stepper      Stepper
	stepperFresh bool
	// SimTime accumulates the stepper-reported (e.g. simulated Sunway)
	// time across steps.
	SimTime float64

	// StragglerFactor inflates this rank's modelled (Sim-clock) step
	// time; 0 or 1 means nominal speed. The supervisor sets it from the
	// fault plan's straggle@ directives so trace.Analyze can flag the
	// slow rank even though the injection only affects the performance
	// model, not the host wall clock.
	StragglerFactor float64

	// tr is this rank's trace handle (nil-safe no-op when tracing is
	// off); simCursor is the rank's position on the modelled Sim clock;
	// lastSimDt is the most recent stepper-reported step time.
	tr        *trace.RankTracer
	simCursor float64
	lastSimDt float64

	// Halo exchange buffers, reused across steps: send[axis][side]
	// [parity] holds the packed face (side 0 = minus, 1 = plus) of
	// steps of that parity. The transport passes references, and a
	// neighbour unpacks step k's message before it sends its step k+1
	// message, which this rank must receive before it packs step k+2 —
	// so two buffers alternating by step parity are never overwritten
	// while a neighbour still reads them.
	send [2][2][2][]float64
	// flags[axis] is the flag scratch of the first exchange: cell flags
	// travel only then (geometry is static), and a restore builds a new
	// Solver, which sends them again.
	flags     [2][]core.CellType
	flagsSent bool

	// resil is the snapshot-collective scratch (see resil.go), reused
	// across captures so steady-state waves allocate nothing.
	resil resilState
}

type faceBC struct {
	cond boundary.Condition
}

// New builds the per-rank solver: decomposes the domain, allocates the
// local lattice (block + halo), applies geometry and initial conditions.
func New(c *mpi.Comm, opts Options) (*Solver, error) {
	if opts.PX*opts.PY != c.Size() {
		return nil, fmt.Errorf("psolve: grid %d×%d != world size %d", opts.PX, opts.PY, c.Size())
	}
	cart, err := mpi.NewCart2D(c, opts.PX, opts.PY, opts.PeriodicX, opts.PeriodicY)
	if err != nil {
		return nil, err
	}
	blocks, err := decomp.Decompose2D(opts.GNX, opts.GNY, opts.GNZ, opts.PX, opts.PY)
	if err != nil {
		return nil, err
	}
	blk := blocks[c.Rank()]
	lat, err := core.NewLattice(&lattice.D3Q19, blk.NX, blk.NY, blk.NZ, opts.Tau)
	if err != nil {
		return nil, err
	}
	lat.Smagorinsky = opts.Smagorinsky
	lat.Force = opts.Force
	switch opts.Kernel {
	case "fused":
	case "":
		if opts.Stepper == nil {
			// Convert before any restore so the phase-aware writes
			// land in the layout the stepper will read.
			lat.EnableAA()
		}
	default:
		return nil, fmt.Errorf("psolve: unknown kernel %q (want \"\" or \"fused\")", opts.Kernel)
	}

	s := &Solver{Opts: opts, Comm: c, Cart: cart, Block: blk, Lat: lat, tr: c.Trace()}
	// Resume the modelled clock where a previous attempt (before a
	// supervised restart) left off, so attempts lay out consecutively.
	s.simCursor = s.tr.SimWatermark()
	if opts.Restore != nil {
		if err := s.restoreFrom(opts.Restore); err != nil {
			return nil, err
		}
	} else {
		s.applyGeometry()
		s.applyInit()
	}
	s.collectBCs()
	s.allocBuffers()
	if opts.Stepper != nil {
		st, err := opts.Stepper(lat)
		if err != nil {
			return nil, err
		}
		s.stepper = st
		s.stepperFresh = true
		if ts, ok := st.(traceSetter); ok {
			ts.SetTrace(s.tr)
		}
	}
	return s, nil
}

func (s *Solver) applyGeometry() {
	if s.Opts.Walls == nil {
		return
	}
	b := s.Block
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			for z := 0; z < b.NZ; z++ {
				if s.Opts.Walls(b.X0+x, b.Y0+y, b.Z0+z) {
					s.Lat.SetWall(x, y, z)
				}
			}
		}
	}
}

func (s *Solver) applyInit() {
	if s.Opts.Init == nil {
		return
	}
	b := s.Block
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			for z := 0; z < b.NZ; z++ {
				if s.Lat.CellTypeAt(x, y, z) != core.Fluid {
					continue
				}
				rho, ux, uy, uz := s.Opts.Init(b.X0+x, b.Y0+y, b.Z0+z)
				s.Lat.SetCell(x, y, z, rho, ux, uy, uz)
			}
		}
	}
}

// collectBCs figures out which global-face conditions this rank applies.
func (s *Solver) collectBCs() {
	cx, cy := s.Cart.Coords()
	touches := map[core.Face]bool{
		core.FaceXMin: cx == 0 && !s.Opts.PeriodicX,
		core.FaceXMax: cx == s.Opts.PX-1 && !s.Opts.PeriodicX,
		core.FaceYMin: cy == 0 && !s.Opts.PeriodicY,
		core.FaceYMax: cy == s.Opts.PY-1 && !s.Opts.PeriodicY,
		core.FaceZMin: !s.Opts.PeriodicZ,
		core.FaceZMax: !s.Opts.PeriodicZ,
	}
	for _, f := range []core.Face{core.FaceXMin, core.FaceXMax, core.FaceYMin,
		core.FaceYMax, core.FaceZMin, core.FaceZMax} {
		if !touches[f] {
			continue
		}
		if cond, ok := s.Opts.FaceBC[f]; ok && cond != nil {
			s.bcs = append(s.bcs, faceBC{cond: cond})
		}
	}
}

func (s *Solver) allocBuffers() {
	for axis, f := range [2]core.Face{core.FaceXMin, core.FaceYMin} {
		n := s.Lat.WireLen(f)
		for side := 0; side < 2; side++ {
			for p := 0; p < 2; p++ {
				s.send[axis][side][p] = make([]float64, n)
			}
		}
		s.flags[axis] = make([]core.CellType, s.Lat.FaceCells(f))
	}
}

// applyLocalBCs fills halos that do not come from neighbours: the z axis
// (periodic or face conditions) and the global-face conditions of edge
// ranks.
func (s *Solver) applyLocalBCs() {
	if s.Opts.PeriodicZ {
		s.Lat.PeriodicAxis(2)
	}
	for _, bc := range s.bcs {
		bc.cond.Apply(s.Lat)
	}
}

// axisPeers describes one decomposed axis' exchange: its faces, the
// neighbour ranks (-1 at a non-periodic global face) and the message
// tags, by side (0 = minus, 1 = plus).
type axisPeers struct {
	face                 [2]core.Face
	peer, tagTo, tagFrom [2]int
}

func (s *Solver) peers(axis int) axisPeers {
	if axis == 0 {
		return axisPeers{
			face:    [2]core.Face{core.FaceXMin, core.FaceXMax},
			peer:    [2]int{s.Cart.Neighbor(-1, 0), s.Cart.Neighbor(1, 0)},
			tagTo:   [2]int{tagXMinus, tagXPlus},
			tagFrom: [2]int{tagXPlus, tagXMinus},
		}
	}
	return axisPeers{
		face:    [2]core.Face{core.FaceYMin, core.FaceYMax},
		peer:    [2]int{s.Cart.Neighbor(0, -1), s.Cart.Neighbor(0, 1)},
		tagTo:   [2]int{tagYMinus, tagYPlus},
		tagFrom: [2]int{tagYPlus, tagYMinus},
	}
}

// local reports whether the axis wraps onto this rank itself (periodic
// with one rank along it), which is a local whole-cell wrap, not an
// exchange.
func (s *Solver) local(ap axisPeers) bool {
	me := s.Comm.Rank()
	return ap.peer[0] == me && ap.peer[1] == me
}

// sendFaces packs and sends both faces of one axis: plus side first,
// then minus. Only the populations crossing each face travel, from this
// step's parity buffer; the first exchange also carries the face's cell
// flags.
//
//lbm:hot
func (s *Solver) sendFaces(axis int, ap axisPeers) {
	p := s.Lat.Step() & 1
	for i := 0; i < 2; i++ {
		side := 1 - i
		dst := ap.peer[side]
		if dst < 0 {
			continue
		}
		buf := s.send[axis][side][p]
		var flg []core.CellType
		if !s.flagsSent {
			flg = s.flags[axis]
		}
		s.Lat.PackFace(ap.face[side], buf, flg)
		m := mpi.Message{Data: buf}
		if flg != nil {
			m.Aux = encodeFlags(flg)
		}
		s.Comm.Send(dst, ap.tagTo[side], m)
	}
}

// recvFaces receives and unpacks both faces of one axis, minus side
// first.
//
//lbm:hot
func (s *Solver) recvFaces(axis int, ap axisPeers) {
	for side := 0; side < 2; side++ {
		src := ap.peer[side]
		if src < 0 {
			continue
		}
		m := s.Comm.Recv(src, ap.tagFrom[side])
		var flg []core.CellType
		if m.Aux != nil {
			flg = decodeFlags(m.Aux, s.flags[axis])
		}
		s.Lat.UnpackFace(ap.face[side], m.Data, flg)
	}
}

// exchangeAxis swaps one axis' face layers with the two neighbours. When
// the neighbour is this rank itself (periodic with one rank along the
// axis), it short-circuits to a local periodic wrap.
//
//lbm:hot
func (s *Solver) exchangeAxis(axis int) {
	ap := s.peers(axis)
	if s.local(ap) {
		s.Lat.PeriodicAxis(axis)
		return
	}
	if s.tr != nil {
		defer s.tr.Scope(trace.TrackMPI, haloName(axis))()
	}
	s.sendFaces(axis, ap)
	s.recvFaces(axis, ap)
}

// haloName labels a halo-exchange span by decomposed axis.
func haloName(axis int) string {
	if axis == 0 {
		return "halo-x"
	}
	return "halo-y"
}

// encodeFlags and decodeFlags carry cell flags in a message's byte
// sidecar; they run on the first exchange only.
func encodeFlags(flags []core.CellType) []byte {
	a := make([]byte, len(flags))
	for i, f := range flags {
		a[i] = byte(f)
	}
	return a
}

func decodeFlags(aux []byte, out []core.CellType) []core.CellType {
	for i := range out {
		out[i] = core.CellType(aux[i])
	}
	return out
}

// Step advances the distributed simulation by one time step.
//
// With tracing on, each step records a wall-clock "step" span plus a
// modelled Sim-clock "step" span: the stepper-reported device time when
// a stepper exists, the wall duration otherwise, either way inflated by
// StragglerFactor — that is how an injected straggler (which slows the
// performance model, not the host) becomes visible to trace.Analyze.
func (s *Solver) Step() {
	if s.tr != nil {
		t0 := s.tr.Now()
		s.tr.Begin(trace.Wall, trace.TrackStep, "step", t0)
		// Deferred so a rank aborted mid-step (a peer died, the world
		// went down) still closes its span during the panic unwind.
		defer func() {
			t1 := s.tr.Now()
			s.tr.End(trace.Wall, trace.TrackStep, t1)
			dt := t1 - t0 // modelled step time defaults to the wall duration
			if s.stepper != nil {
				dt = s.lastSimDt
			}
			if s.StragglerFactor > 1 {
				dt *= s.StragglerFactor
			}
			s.tr.Span(trace.Sim, trace.TrackStep, "step", s.simCursor, s.simCursor+dt)
			s.simCursor += dt
		}()
	}
	if s.stepper != nil {
		s.stepWithStepper()
	} else if s.Opts.OnTheFly {
		s.stepOnTheFly()
	} else {
		s.stepSequential()
	}
}

// stepWithStepper runs the sequential exchange around a custom kernel
// driver (the simulated Sunway core group).
func (s *Solver) stepWithStepper() {
	s.tracedBCs()
	s.exchangeAxis(0)
	s.exchangeAxis(1)
	s.flagsSent = true
	if s.stepperFresh {
		// The first exchange may have imported wall flags from the
		// neighbours and the boundary conditions; refresh the
		// driver's geometry-derived state before its first step.
		s.stepper.Rebuild()
		s.stepperFresh = false
	}
	var done func()
	if s.tr != nil {
		done = s.tr.Scope(trace.TrackStep, "compute")
	}
	dt := s.stepper.Step()
	if done != nil {
		done()
	}
	s.SimTime += dt
	s.lastSimDt = dt
}

// tracedBCs applies the local boundary conditions under a span.
func (s *Solver) tracedBCs() {
	if s.tr != nil {
		defer s.tr.Scope(trace.TrackStep, "bc")()
	}
	s.applyLocalBCs()
}

// stepSequential is the original scheme of Fig. 6(1): halo exchange fully
// completes, then the whole subdomain is computed.
//
//lbm:hot
func (s *Solver) stepSequential() {
	s.tracedBCs()
	s.exchangeAxis(0)
	s.exchangeAxis(1)
	s.flagsSent = true
	var done func()
	if s.tr != nil {
		done = s.tr.Scope(trace.TrackStep, "compute")
	}
	s.Lat.StepFused()
	if done != nil {
		done()
	}
}

// stepOnTheFly is the overlapped scheme of Fig. 6(2): the inner region
// (which depends on no x/y halo) is computed while the halo exchange is in
// flight; the boundary strips follow once the halo has arrived. The final
// state is bit-identical to stepSequential.
//
//lbm:hot
func (s *Solver) stepOnTheFly() {
	s.tracedBCs()
	l := s.Lat
	// Start the x exchange: the sends leave now (the transport buffers
	// them); the receives wait until after the inner region.
	xp := s.peers(0)
	xLocal := s.local(xp)
	if xLocal {
		l.PeriodicAxis(0)
	} else {
		s.sendFaces(0, xp)
	}
	// Inner region: cells whose 1-neighbourhood stays inside the
	// interior, i.e. x∈[1,NX-1), y∈[1,NY-1).
	if l.NX > 2 && l.NY > 2 {
		var done func()
		if s.tr != nil {
			done = s.tr.Scope(trace.TrackStep, "compute-inner")
		}
		l.StepRegion(1, l.NX-1, 1, l.NY-1)
		if done != nil {
			done()
		}
	}
	// Finish x; then the y exchange can pack its corners. The span is
	// closed by defer so an abort inside Wait still nests.
	func() {
		if s.tr != nil {
			defer s.tr.Scope(trace.TrackMPI, "halo-x-wait")()
		}
		if !xLocal {
			s.recvFaces(0, xp)
		}
	}()
	s.exchangeAxis(1)
	s.flagsSent = true
	// Boundary strips.
	var done func()
	if s.tr != nil {
		done = s.tr.Scope(trace.TrackStep, "compute-boundary")
	}
	if l.NX > 2 && l.NY > 2 {
		l.StepRegion(0, 1, 0, l.NY)         // west column, full y
		l.StepRegion(l.NX-1, l.NX, 0, l.NY) // east column, full y
		l.StepRegion(1, l.NX-1, 0, 1)       // south strip
		l.StepRegion(1, l.NX-1, l.NY-1, l.NY)
	} else {
		l.StepRegion(0, l.NX, 0, l.NY)
	}
	l.CompleteStep()
	if done != nil {
		done()
	}
}

// GatherMacro assembles the global macroscopic fields on rank root;
// other ranks return nil.
func (s *Solver) GatherMacro(root int) *core.MacroField {
	local := s.Lat.ComputeMacro()
	b := s.Block
	header := []float64{float64(b.X0), float64(b.Y0), float64(b.Z0),
		float64(b.NX), float64(b.NY), float64(b.NZ)}
	payload := header
	payload = append(payload, local.Rho...)
	payload = append(payload, local.Ux...)
	payload = append(payload, local.Uy...)
	payload = append(payload, local.Uz...)
	msgs := s.Comm.Gather(root, mpi.Message{Data: payload})
	if msgs == nil {
		return nil
	}
	g := &core.MacroField{
		NX: s.Opts.GNX, NY: s.Opts.GNY, NZ: s.Opts.GNZ,
		Rho: make([]float64, s.Opts.GNX*s.Opts.GNY*s.Opts.GNZ),
		Ux:  make([]float64, s.Opts.GNX*s.Opts.GNY*s.Opts.GNZ),
		Uy:  make([]float64, s.Opts.GNX*s.Opts.GNY*s.Opts.GNZ),
		Uz:  make([]float64, s.Opts.GNX*s.Opts.GNY*s.Opts.GNZ),
	}
	for _, m := range msgs {
		h := m.Data[:6]
		x0, y0 := int(h[0]), int(h[1])
		nx, ny, nz := int(h[3]), int(h[4]), int(h[5])
		n := nx * ny * nz
		rho := m.Data[6 : 6+n]
		ux := m.Data[6+n : 6+2*n]
		uy := m.Data[6+2*n : 6+3*n]
		uz := m.Data[6+3*n : 6+4*n]
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for z := 0; z < nz; z++ {
					li := (y*nx+x)*nz + z
					gi := g.Idx(x0+x, y0+y, z)
					g.Rho[gi] = rho[li]
					g.Ux[gi] = ux[li]
					g.Uy[gi] = uy[li]
					g.Uz[gi] = uz[li]
				}
			}
		}
	}
	return g
}

// GlobalMass returns the total mass across all ranks (on every rank).
func (s *Solver) GlobalMass() float64 {
	return s.Comm.AllreduceSum(s.Lat.TotalMass())
}

// Run executes a full distributed simulation with the given number of
// ranks and steps and returns the gathered global macroscopic field from
// rank 0.
func Run(opts Options, steps int) (*core.MacroField, error) {
	if opts.PX == 0 || opts.PY == 0 {
		opts.PX, opts.PY = mpi.FactorGrid(1, opts.GNX, opts.GNY)
	}
	w, err := mpi.NewWorld(opts.PX * opts.PY)
	if err != nil {
		return nil, err
	}
	w.SetTracer(opts.Trace)
	var result *core.MacroField
	err = mpi.RunWorld(w, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		if g := s.GatherMacro(0); g != nil {
			result = g
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}
