// Package datasets provides deterministic synthetic stand-ins for the 15
// real-world graphs of the paper's Table 3, plus a random-graph sampler used
// to train the schedule predictor (paper §5.4).
//
// The paper characterises each dataset by exactly the properties that drive
// schedule choice: vertex count, edge count, degree skew ("std of nnz"),
// feature width, and class count. The generators here are calibrated to hit
// those five numbers per dataset; community structure is approximated with a
// locality parameter that biases edge endpoints to nearby vertex ids. What a
// generator cannot reproduce — the exact wiring of, say, the real artist
// graph — does not participate in any of the paper's mechanisms, which act
// through size, skew and feature width.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/graph"
)

// Spec describes one dataset row of Table 3 and how to synthesise it.
type Spec struct {
	Name  string  // full name, e.g. "soc-BlogCatalog"
	Abbr  string  // the paper's two-letter code, e.g. "SB"
	V     int     // #Vertex
	E     int     // #Edge
	Std   float64 // target "std of nnz" (in-degree standard deviation)
	Feat  int     // #Feature (input feature width)
	Class int     // #Class (output width)
	// Locality in [0,1]: probability that an edge's source is drawn from a
	// window near its destination (community structure proxy).
	Locality float64
	// Window is the half-width of the locality window in vertex ids.
	Window int
	seed   int64
}

// Table3 lists the fifteen datasets in the paper's order.
var Table3 = []Spec{
	{Name: "cora", Abbr: "CO", V: 2708, E: 10556, Std: 5.23, Feat: 1433, Class: 7, Locality: 0.5, Window: 64},
	{Name: "citeseer", Abbr: "CI", V: 3327, E: 9228, Std: 3.38, Feat: 3703, Class: 6, Locality: 0.5, Window: 64},
	{Name: "pubmed", Abbr: "PU", V: 19717, E: 99203, Std: 7.82, Feat: 500, Class: 3, Locality: 0.5, Window: 128},
	{Name: "PROTEINS_full", Abbr: "PR", V: 43466, E: 162088, Std: 1.15, Feat: 29, Class: 2, Locality: 0.95, Window: 16},
	{Name: "artist", Abbr: "AR", V: 50515, E: 1638396, Std: 63.47, Feat: 100, Class: 12, Locality: 0.3, Window: 256},
	{Name: "ppi", Abbr: "PP", V: 56944, E: 818716, Std: 23.29, Feat: 50, Class: 121, Locality: 0.4, Window: 256},
	{Name: "soc-BlogCatalog", Abbr: "SB", V: 88784, E: 2093195, Std: 206.81, Feat: 128, Class: 39, Locality: 0.2, Window: 512},
	{Name: "com-amazon", Abbr: "CA", V: 334863, E: 1851744, Std: 5.76, Feat: 96, Class: 22, Locality: 0.8, Window: 64},
	{Name: "DD", Abbr: "DD", V: 334925, E: 1686092, Std: 1.69, Feat: 89, Class: 2, Locality: 0.95, Window: 16},
	{Name: "amazon0601", Abbr: "AM06", V: 403394, E: 3387388, Std: 15.28, Feat: 96, Class: 22, Locality: 0.7, Window: 128},
	{Name: "amazon0505", Abbr: "AM05", V: 410236, E: 4878874, Std: 15.05, Feat: 96, Class: 22, Locality: 0.7, Window: 128},
	{Name: "TWITTER-Partial", Abbr: "TW", V: 580768, E: 1435116, Std: 1.52, Feat: 1323, Class: 2, Locality: 0.9, Window: 16},
	{Name: "Yeast", Abbr: "YE", V: 1710902, E: 3636546, Std: 0.75, Feat: 74, Class: 2, Locality: 0.95, Window: 8},
	{Name: "SW-620H", Abbr: "SW", V: 1888584, E: 3944206, Std: 1.16, Feat: 66, Class: 2, Locality: 0.95, Window: 8},
	{Name: "OVCAR-8H", Abbr: "OV", V: 1889542, E: 3946402, Std: 1.16, Feat: 66, Class: 2, Locality: 0.95, Window: 8},
}

// ByAbbr finds a spec by its two-letter (or four-letter) code.
func ByAbbr(abbr string) (Spec, error) {
	for _, s := range Table3 {
		if s.Abbr == abbr || s.Name == abbr {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", abbr)
}

// Generate synthesises the graph for a spec. The result is deterministic:
// the same spec always yields the same graph.
func (s Spec) Generate() *graph.Graph {
	seed := s.seed
	if seed == 0 {
		// Stable per-name seed so each dataset is distinct but reproducible.
		for _, c := range s.Name {
			seed = seed*131 + int64(c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	degs := sampleDegrees(rng, s.V, s.E, s.Std)
	b := graph.NewBuilder(s.V)
	n32 := int32(s.V)
	for dst := 0; dst < s.V; dst++ {
		for k := int32(0); k < degs[dst]; k++ {
			var src int32
			if rng.Float64() < s.Locality && s.Window > 0 {
				off := int32(rng.Intn(2*s.Window+1) - s.Window)
				src = (int32(dst) + off + n32) % n32
			} else {
				src = int32(rng.Intn(s.V))
			}
			b.AddEdge(src, int32(dst))
		}
	}
	g, err := b.Build()
	if err != nil {
		// invariant: generator bugs only; every edge endpoint above is drawn
		// from [0, s.V), so Build cannot reject internal inputs.
		panic(fmt.Sprintf("datasets: generate %s: %v", s.Name, err))
	}
	return g
}

// sampleDegrees draws a degree sequence with the given total and an
// (approximate) target standard deviation, then repairs the sum to be exact.
//
// Two regimes: near-regular targets (std <= 1.2x mean) use a truncated
// Gaussian around the mean; skewed targets use a lognormal whose sigma is
// solved from the coefficient of variation (for lognormal, cv^2 = e^sigma^2 - 1).
func sampleDegrees(rng *rand.Rand, n, m int, targetStd float64) []int32 {
	degs := make([]int32, n)
	if n == 0 || m == 0 {
		return degs
	}
	mean := float64(m) / float64(n)
	cv := targetStd / mean
	if cv <= 1.2 {
		for i := range degs {
			d := mean + targetStd*rng.NormFloat64()
			if d < 0 {
				d = 0
			}
			degs[i] = int32(d + 0.5)
		}
	} else {
		sigma2 := math.Log(1 + cv*cv)
		sigma := math.Sqrt(sigma2)
		mu := math.Log(mean) - sigma2/2
		for i := range degs {
			d := math.Exp(mu + sigma*rng.NormFloat64())
			// Cap extreme tail draws: a single vertex should not swallow
			// more than ~1/4 of all edges (matches real social graphs and
			// keeps the sum repair stable).
			if d > float64(m)/4 {
				d = float64(m) / 4
			}
			degs[i] = int32(d + 0.5)
		}
	}
	repairSum(rng, degs, m)
	return degs
}

// repairSum adjusts entries of degs until they total exactly want, spreading
// the correction over random vertices.
func repairSum(rng *rand.Rand, degs []int32, want int) {
	var have int
	for _, d := range degs {
		have += int(d)
	}
	n := len(degs)
	for have != want {
		i := rng.Intn(n)
		if have < want {
			degs[i]++
			have++
		} else if degs[i] > 0 {
			degs[i]--
			have--
		}
	}
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*graph.Graph{}
)

// Load returns the (memoised) graph for the dataset code. Generating the
// largest dataset takes under a second; repeated loads are free.
func Load(abbr string) (*graph.Graph, Spec, error) {
	spec, err := ByAbbr(abbr)
	if err != nil {
		return nil, Spec{}, err
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[spec.Name]; ok {
		return g, spec, nil
	}
	g := spec.Generate()
	cache[spec.Name] = g
	return g, spec, nil
}

// RandomSpec draws a random dataset spec for predictor training, spanning
// the size/skew/feature ranges of Table 3 (paper: 128 graphs from the
// network repository).
func RandomSpec(rng *rand.Rand, idx int) Spec {
	v := int(math.Exp(rng.Float64()*(math.Log(300000)-math.Log(2000)) + math.Log(2000)))
	meanDeg := 2 + rng.Float64()*28
	e := int(float64(v) * meanDeg)
	var std float64
	if rng.Float64() < 0.5 {
		std = meanDeg * (0.1 + rng.Float64()) // near-regular to mildly skewed
	} else {
		std = meanDeg * (1.5 + rng.Float64()*7) // heavy-tailed
	}
	feats := []int{16, 32, 64, 128, 256, 512}
	return Spec{
		Name:     fmt.Sprintf("rand-%d", idx),
		Abbr:     fmt.Sprintf("R%d", idx),
		V:        v,
		E:        e,
		Std:      std,
		Feat:     feats[rng.Intn(len(feats))],
		Class:    2 + rng.Intn(40),
		Locality: rng.Float64(),
		Window:   1 << (3 + rng.Intn(6)),
		seed:     int64(idx)*7919 + 13,
	}
}
