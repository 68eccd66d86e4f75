package conform

import (
	"testing"
)

func mustParse(t *testing.T, s string) *Case {
	t.Helper()
	c, err := ParseCase(s)
	if err != nil {
		t.Fatalf("ParseCase(%q): %v", s, err)
	}
	return c
}

// The physics properties must pass on representative in-scope cases.
func TestPropertiesPassInScope(t *testing.T) {
	periodic := mustParse(t, "v1;seed=21;grid=8x9x8;tau=0.7;steps=4;bc=periodic;obst=1")
	forced := mustParse(t, "v1;seed=22;grid=8x8x8;tau=0.8;steps=4;bc=periodic;force=1e-05,-5e-06,2e-06")
	smag := mustParse(t, "v1;seed=23;grid=8x8x8;tau=0.6;steps=3;bc=periodic;smag=0.15")
	free := mustParse(t, "v1;seed=24;grid=8x8x9;tau=0.75;steps=4;bc=periodic")

	checks := []struct {
		name  string
		c     *Case
		check func(x *Ctx) error
	}{
		{"mass/obstacles", periodic, checkMass},
		{"mass/forced", forced, checkMass},
		{"mass/les", smag, checkMass},
		{"momentum/free", free, checkMomentum},
		{"rest/obstacles", periodic, checkRest},
		{"translate/obstacles", periodic, checkTranslate},
		{"translate/forced", forced, checkTranslate},
		{"reflect/obstacles", periodic, checkReflect},
		{"reflect/forced", forced, checkReflect},
		{"reflect/les", smag, checkReflect},
		{"rotate/obstacles", periodic, checkRotate},
		{"rotate/forced", forced, checkRotate},
	}
	for _, tc := range checks {
		if err := tc.check(&Ctx{Case: tc.c}); err != nil {
			t.Errorf("%s on %s: %v", tc.name, tc.c, err)
		}
	}
}

// Out-of-scope regimes must skip, not fail.
func TestPropertiesSkipOutOfScope(t *testing.T) {
	lid := mustParse(t, "v1;seed=31;grid=8x8x8;tau=0.8;steps=3;bc=lid")
	channel := mustParse(t, "v1;seed=32;grid=8x8x8;tau=0.8;steps=3;bc=channel")
	walled := mustParse(t, "v1;seed=33;grid=8x8x8;tau=0.8;steps=3;bc=periodic;obst=1")
	forced := mustParse(t, "v1;seed=34;grid=8x8x8;tau=0.8;steps=3;bc=periodic;force=1e-05,0,0")

	skips := []struct {
		name  string
		c     *Case
		check func(x *Ctx) error
	}{
		{"mass/lid", lid, checkMass},
		{"momentum/channel", channel, checkMomentum},
		{"momentum/walled", walled, checkMomentum},
		{"momentum/forced", forced, checkMomentum},
		{"rest/forced", forced, checkRest},
		{"translate/lid", lid, checkTranslate},
		{"reflect/channel", channel, checkReflect},
		{"rotate/lid", lid, checkRotate},
	}
	for _, tc := range skips {
		err := tc.check(&Ctx{Case: tc.c})
		if err == nil || !IsSkip(err) {
			t.Errorf("%s: want skip, got %v", tc.name, err)
		}
	}
}

// Checkpoint and fault-plan recovery must hold in every regime —
// including a driven cavity whose MovingWall state lives in the halo and
// must be rebuilt by the boundary conditions after restore.
func TestRestartPropertiesAcrossRegimes(t *testing.T) {
	for _, s := range []string{
		"v1;seed=41;grid=8x8x8;tau=0.7;steps=4;bc=periodic;obst=1",
		"v1;seed=42;grid=8x8x8;tau=0.8;steps=4;bc=lid",
		"v1;seed=43;grid=8x8x8;tau=0.75;steps=4;bc=channel",
	} {
		c := mustParse(t, s)
		if err := checkCheckpoint(&Ctx{Case: c}); err != nil {
			t.Errorf("prop/checkpoint on %s: %v", s, err)
		}
		if err := checkFaultPlan(&Ctx{Case: c}); err != nil {
			t.Errorf("prop/faultplan on %s: %v", s, err)
		}
	}
}

// The differential matrix is exercised end-to-end on one case per
// regime (the suite test covers generated mixes; this pins each regime
// explicitly so a regression names the backend AND the regime).
func TestMatrixPerRegime(t *testing.T) {
	for _, s := range []string{
		"v1;seed=51;grid=8x8x8;tau=0.7;steps=3;bc=periodic;obst=2;force=1e-05,0,-1e-05",
		"v1;seed=52;grid=9x8x8;tau=0.8;steps=3;bc=lid;obst=1",
		"v1;seed=53;grid=10x8x8;tau=0.65;steps=3;bc=channel;smag=0.12",
	} {
		c := mustParse(t, s)
		x := &Ctx{Case: c}
		for _, b := range Backends() {
			got, err := b.Run(c)
			if err != nil {
				t.Errorf("%s on %s: %v", b.Name, s, err)
				continue
			}
			want, err := x.Reference()
			if err != nil {
				t.Fatalf("reference on %s: %v", s, err)
			}
			if err := Compare(want, got, Exact); err != nil {
				t.Errorf("%s diverges on %s: %v", b.Name, s, err)
			}
		}
	}
}

// TestMatrixPerRegimeEvenSteps is TestMatrixPerRegime at an even step
// count: AA storage ends in the natural layout instead of the
// reversed-shifted one, so every backend — psolve's default AA ranks,
// their crossing-only halo wire and the explicit A–B ("fused") ranks
// included — must match the reference at both parities in every regime.
func TestMatrixPerRegimeEvenSteps(t *testing.T) {
	for _, s := range []string{
		"v1;seed=61;grid=8x8x8;tau=0.7;steps=4;bc=periodic;obst=2;force=1e-05,0,-1e-05",
		"v1;seed=62;grid=9x8x8;tau=0.8;steps=4;bc=lid;obst=1",
		"v1;seed=63;grid=10x8x8;tau=0.65;steps=4;bc=channel;smag=0.12",
	} {
		c := mustParse(t, s)
		want, err := (&Ctx{Case: c}).Reference()
		if err != nil {
			t.Fatalf("reference on %s: %v", s, err)
		}
		for _, b := range Backends() {
			got, err := b.Run(c)
			if err != nil {
				t.Errorf("%s on %s: %v", b.Name, s, err)
				continue
			}
			if err := Compare(want, got, Exact); err != nil {
				t.Errorf("%s diverges on %s: %v", b.Name, s, err)
			}
		}
	}
}
