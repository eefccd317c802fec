package cell

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
)

func we(t *testing.T, name, target string) *electrode.Electrode {
	t.Helper()
	assays := enzyme.AssaysFor(target)
	if len(assays) == 0 {
		t.Fatalf("no assay for %s", target)
	}
	return electrode.NewWorking(name, electrode.CNT, assays[0])
}

func validCell(t *testing.T) *Cell {
	t.Helper()
	return NewSingleChamber(NewSolution(),
		we(t, "WE1", "glucose"), we(t, "WE2", "lactate"),
		electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
}

func TestSolutionInitialAndInjections(t *testing.T) {
	s := NewSolution().Set("glucose", phys.MilliMolar(1))
	s.Inject(10, "glucose", phys.MilliMolar(2))
	s.Inject(20, "glucose", phys.MilliMolar(-5)) // over-dilution floors at 0

	cases := []struct{ t, want float64 }{
		{0, 1}, {9.99, 1}, {10, 3}, {15, 3}, {20, 0}, {100, 0},
	}
	for _, c := range cases {
		if got := s.At("glucose", c.t).MilliMolar(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if s.At("lactate", 50) != 0 {
		t.Error("unknown species must read 0")
	}
}

func TestSolutionInjectionOrdering(t *testing.T) {
	s := NewSolution()
	s.Inject(20, "x", 1)
	s.Inject(10, "x", 1) // added out of order
	if got := s.At("x", 15).MilliMolar(); got != 1 {
		t.Fatalf("At(15) = %g, want 1 (injections must sort by time)", got)
	}
	if got := s.At("x", 25).MilliMolar(); got != 2 {
		t.Fatalf("At(25) = %g, want 2", got)
	}
}

// TestSolutionInjectMatchesStableSort: Inject's in-place insertion
// must leave the injection list exactly as appending and re-sorting
// with sort.SliceStable would, on random sequences dense in tied times
// (ties keep their injection order), across Reset reuse.
func TestSolutionInjectMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	s := NewSolution()
	for trial := 0; trial < 500; trial++ {
		s.Reset()
		var want []Injection
		for k, n := 0, rng.IntN(30); k < n; k++ {
			inj := Injection{
				Time:    float64(rng.IntN(6)), // few distinct times: many ties
				Species: []string{"x", "y", "z"}[rng.IntN(3)],
				Delta:   phys.Concentration(k + 1), // identifies the step
			}
			s.Inject(inj.Time, inj.Species, inj.Delta)
			want = append(want, inj)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		}
		if !slices.Equal(s.injections, want) {
			t.Fatalf("trial %d: injections %v, want %v", trial, s.injections, want)
		}
	}
}

func TestSolutionSpeciesView(t *testing.T) {
	s := NewSolution().Set("b", 1).Set("a", 1)
	s.Inject(1, "c", 1)
	if got := s.SpeciesView(); !slices.Equal(got, s.Species()) {
		t.Fatalf("view %v, copy %v", got, s.Species())
	}
	if a := testing.AllocsPerRun(10, func() { _ = s.SpeciesView() }); a != 0 {
		t.Fatalf("SpeciesView allocated %g objects", a)
	}
}

func TestSolutionSpecies(t *testing.T) {
	s := NewSolution().Set("b", 1).Set("a", 1)
	s.Inject(1, "c", 1)
	names := s.Species()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("species %v", names)
	}
}

func TestCellValidate(t *testing.T) {
	if err := validCell(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCellValidateRejects(t *testing.T) {
	re := electrode.NewReference("RE1")
	ce := electrode.NewCounter("CE1")
	w := we(t, "WE1", "glucose")

	noWE := NewSingleChamber(NewSolution(), re, ce)
	if err := noWE.Validate(); err == nil {
		t.Error("chamber without WE must fail")
	}
	noRE := NewSingleChamber(NewSolution(), w, ce)
	if err := noRE.Validate(); err == nil {
		t.Error("chamber without RE must fail")
	}
	twoRE := NewSingleChamber(NewSolution(), we(t, "WEx", "glucose"), re, electrode.NewReference("RE2"), ce)
	if err := twoRE.Validate(); err == nil {
		t.Error("two reference electrodes must fail")
	}
	dup := NewSingleChamber(NewSolution(), we(t, "WE1", "glucose"), we(t, "WE1", "lactate"), re, ce)
	if err := dup.Validate(); err == nil {
		t.Error("duplicate electrode names must fail")
	}
	bad := validCell(t)
	bad.Crosstalk = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("crosstalk ≥ 1 must fail")
	}
}

func TestWorkingElectrodes(t *testing.T) {
	c := validCell(t)
	wes := c.WorkingElectrodes()
	if len(wes) != 2 || wes[0].Name != "WE1" || wes[1].Name != "WE2" {
		t.Fatalf("WEs: %v", wes)
	}
}

func TestNeighbours(t *testing.T) {
	c := validCell(t)
	nb, err := c.Neighbours("WE1")
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 1 || nb[0].Name != "WE2" {
		t.Fatalf("neighbours of WE1: %v", nb)
	}
}

func TestMultiChamberIsolation(t *testing.T) {
	c := &Cell{
		Crosstalk: DefaultCrosstalk,
		Chambers: []*Chamber{
			{Name: "ch1", Solution: NewSolution(), Electrodes: []*electrode.Electrode{
				we(t, "WE1", "glucose"), electrode.NewReference("RE1"), electrode.NewCounter("CE1")}},
			{Name: "ch2", Solution: NewSolution(), Electrodes: []*electrode.Electrode{
				we(t, "WE2", "lactate"), electrode.NewReference("RE2"), electrode.NewCounter("CE2")}},
		},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	nb, err := c.Neighbours("WE1")
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 0 {
		t.Fatal("electrodes in separate chambers must not be neighbours")
	}
	ch, err := c.ChamberOf("WE2")
	if err != nil || ch.Name != "ch2" {
		t.Fatalf("ChamberOf(WE2) = %v, %v", ch, err)
	}
}

func TestFindWE(t *testing.T) {
	c := validCell(t)
	if _, err := c.FindWE("WE2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FindWE("RE1"); err == nil {
		t.Fatal("reference electrode must not be findable as WE")
	}
	if _, err := c.FindWE("nope"); err == nil {
		t.Fatal("unknown electrode must fail")
	}
}

// Property: solution concentration is non-negative at all times under
// arbitrary injection sequences.
func TestSolutionNonNegativeProperty(t *testing.T) {
	f := func(deltas []int8, times []uint8) bool {
		s := NewSolution()
		n := len(deltas)
		if len(times) < n {
			n = len(times)
		}
		for i := 0; i < n; i++ {
			s.Inject(float64(times[i]), "x", phys.Concentration(deltas[i]))
		}
		for tq := 0.0; tq < 300; tq += 7 {
			if s.At("x", tq) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
