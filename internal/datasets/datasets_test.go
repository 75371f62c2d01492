package datasets

import (
	"math"
	"math/rand"
	"testing"
)

func TestByAbbr(t *testing.T) {
	s, err := ByAbbr("SB")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "soc-BlogCatalog" {
		t.Errorf("SB resolved to %s", s.Name)
	}
	if _, err := ByAbbr("cora"); err != nil {
		t.Error("full name lookup should work")
	}
	if _, err := ByAbbr("XX"); err == nil {
		t.Error("unknown code should fail")
	}
}

func TestAbbrsOrder(t *testing.T) {
	a := Abbrs()
	if len(a) != 15 {
		t.Fatalf("want 15 datasets, got %d", len(a))
	}
	if a[0] != "CO" || a[14] != "OV" {
		t.Errorf("order wrong: %v", a)
	}
}

// TestSmallDatasetsCalibration generates the small datasets fully and checks
// the synthetic graphs hit the Table 3 row targets: exact V and E, and a
// degree std within tolerance of the paper's "std of nnz".
func TestSmallDatasetsCalibration(t *testing.T) {
	for _, abbr := range []string{"CO", "CI", "PU", "PR", "AR", "PP", "SB"} {
		g, spec, err := Load(abbr)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != spec.V {
			t.Errorf("%s: V = %d, want %d", abbr, g.NumVertices(), spec.V)
		}
		if g.NumEdges() != spec.E {
			t.Errorf("%s: E = %d, want %d", abbr, g.NumEdges(), spec.E)
		}
		st := g.ComputeStats()
		// Degree std should be within 40% of the target (sampling noise and
		// the tail cap make it inexact; the schedule-relevant property is the
		// order of magnitude of skew).
		lo, hi := spec.Std*0.6, spec.Std*1.6
		if st.StdInDegree < lo || st.StdInDegree > hi {
			t.Errorf("%s: std = %.2f, want within [%.2f, %.2f]", abbr, st.StdInDegree, lo, hi)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", abbr, err)
		}
	}
}

// TestSkewOrdering checks that the relative skew ordering the experiments
// rely on holds: SB and AR are far more imbalanced than PR and DD-style
// graphs.
func TestSkewOrdering(t *testing.T) {
	gAR, _, _ := Load("AR")
	gPR, _, _ := Load("PR")
	sAR := gAR.ComputeStats()
	sPR := gPR.ComputeStats()
	if sAR.StdInDegree < 10*sPR.StdInDegree {
		t.Errorf("AR std %.2f should dwarf PR std %.2f", sAR.StdInDegree, sPR.StdInDegree)
	}
	if sAR.GiniInDegree <= sPR.GiniInDegree {
		t.Errorf("AR gini %.2f should exceed PR gini %.2f", sAR.GiniInDegree, sPR.GiniInDegree)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByAbbr("CO")
	g1 := s.Generate()
	g2 := s.Generate()
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("non-deterministic edge count")
	}
	for e := int32(0); e < int32(g1.NumEdges()); e++ {
		s1, d1 := g1.EdgeEndpoints(e)
		s2, d2 := g2.EdgeEndpoints(e)
		if s1 != s2 || d1 != d2 {
			t.Fatalf("edge %d differs between generations", e)
		}
	}
}

func TestLoadMemoises(t *testing.T) {
	g1, _, _ := Load("CO")
	g2, _, _ := Load("CO")
	if g1 != g2 {
		t.Error("Load should return the cached graph")
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustLoad("ZZ")
}

func TestSampleDegreesSumExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		n, m int
		std  float64
	}{
		{1000, 5000, 1.0},
		{1000, 5000, 50.0},
		{10, 0, 1.0},
		{5, 100, 2.0},
	} {
		degs := sampleDegrees(rng, c.n, c.m, c.std)
		var sum int
		for _, d := range degs {
			if d < 0 {
				t.Fatalf("negative degree %d", d)
			}
			sum += int(d)
		}
		if sum != c.m {
			t.Errorf("n=%d m=%d: degree sum %d != %d", c.n, c.m, sum, c.m)
		}
	}
}

func TestSampleDegreesSkewRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, m := 20000, 200000
	mean := float64(m) / float64(n)

	std := func(degs []int32) float64 {
		var s, ss float64
		for _, d := range degs {
			s += float64(d)
		}
		mu := s / float64(len(degs))
		for _, d := range degs {
			ss += (float64(d) - mu) * (float64(d) - mu)
		}
		return math.Sqrt(ss / float64(len(degs)))
	}

	low := std(sampleDegrees(rng, n, m, mean*0.2))
	high := std(sampleDegrees(rng, n, m, mean*8))
	if low >= high/5 {
		t.Errorf("regimes not separated: low-skew std %.2f vs high-skew std %.2f", low, high)
	}
}

func TestRandomSpecRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		s := RandomSpec(rng, i)
		if s.V < 2000 || s.V > 300001 {
			t.Errorf("spec %d: V=%d out of range", i, s.V)
		}
		if s.E < s.V {
			t.Errorf("spec %d: E=%d < V=%d", i, s.E, s.V)
		}
		if s.Feat <= 0 || s.Class <= 0 {
			t.Errorf("spec %d: bad feat/class", i)
		}
	}
	// Small random specs must actually generate.
	s := RandomSpec(rand.New(rand.NewSource(4)), 999)
	s.V, s.E = 500, 2500
	g := s.Generate()
	if g.NumVertices() != 500 || g.NumEdges() != 2500 {
		t.Errorf("generated %d/%d", g.NumVertices(), g.NumEdges())
	}
}
