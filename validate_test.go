package sisyphus

import (
	"strings"
	"testing"
)

func validStudy(t *testing.T, seed uint64, n int, effect float64) *Study {
	t.Helper()
	s := NewStudy("validation battery")
	if err := s.WithGraphText("C -> R; C -> L; R -> L"); err != nil {
		t.Fatal(err)
	}
	if err := s.Effect("R", "L"); err != nil {
		t.Fatal(err)
	}
	s.WithData(confoundedFrame(seed, n, effect))
	return s
}

func TestRefuteBatteryPasses(t *testing.T) {
	s := validStudy(t, 21, 4000, 3)
	refs, err := s.Refute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 {
		t.Fatalf("refutations = %d", len(refs))
	}
	for _, r := range refs {
		if !r.Passed {
			t.Fatalf("refuter failed on a sound study: %v", r)
		}
	}
}

func TestRefuteRequiresBackdoor(t *testing.T) {
	s := NewStudy("latent")
	_ = s.WithGraphText("U [latent]; U -> R; U -> L; R -> L")
	_ = s.Effect("R", "L")
	s.WithData(confoundedFrame(22, 500, 1))
	if _, err := s.Refute(1); err == nil {
		t.Fatal("refute without backdoor accepted")
	}
	s2 := NewStudy("no data")
	_ = s2.WithGraphText("C -> R; C -> L; R -> L")
	_ = s2.Effect("R", "L")
	if _, err := s2.Refute(1); err == nil {
		t.Fatal("refute without data accepted")
	}
}

func TestSensitivityReport(t *testing.T) {
	s := validStudy(t, 23, 6000, 3)
	rep, err := s.SensitivityReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E-value (point)", "E-value (CI edge)", "unmeasured confounder"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestStructureCheckAgreesWithTrueGraph(t *testing.T) {
	s := validStudy(t, 24, 8000, 3)
	cmp, pdag, err := s.StructureCheck()
	if err != nil {
		t.Fatal(err)
	}
	if pdag == nil {
		t.Fatal("no pdag returned")
	}
	if len(cmp.SkeletonMissing) != 0 || len(cmp.SkeletonExtra) != 0 {
		t.Fatalf("structure check disagreed on a correct graph: %+v (%v)", cmp, pdag)
	}
}

func TestStructureCheckFlagsWrongGraph(t *testing.T) {
	// Assumed graph omits C → L; data contain it. The discovery must
	// report an extra adjacency the assumed graph lacks.
	s := NewStudy("wrong graph")
	if err := s.WithGraphText("C -> R; R -> L"); err != nil {
		t.Fatal(err)
	}
	if err := s.Effect("R", "L"); err != nil {
		t.Fatal(err)
	}
	s.WithData(confoundedFrame(25, 8000, 3))
	cmp, _, err := s.StructureCheck()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range cmp.SkeletonExtra {
		if (e[0] == "C" && e[1] == "L") || (e[0] == "L" && e[1] == "C") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing C—L dependence not flagged: %+v", cmp)
	}
}

func TestStructureCheckGuards(t *testing.T) {
	s := NewStudy("x")
	if _, _, err := s.StructureCheck(); err == nil {
		t.Fatal("no graph accepted")
	}
	_ = s.WithGraphText("A -> B")
	if _, _, err := s.StructureCheck(); err == nil {
		t.Fatal("no data accepted")
	}
}
