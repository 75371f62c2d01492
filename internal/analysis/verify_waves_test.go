package analysis

import "testing"

// chainFacts is a minimal legal schedule: s0 writes [0,4), s1 reads it and
// writes [4,8), with the matching true edge and one step per wave.
func chainFacts() WaveFacts {
	return WaveFacts{
		Subject: "chain",
		Steps: []StepEffects{
			{Name: "s0", Writes: []Interval{{Off: 0, Len: 4}}},
			{Name: "s1", Reads: []Interval{{Off: 0, Len: 4}}, Writes: []Interval{{Off: 4, Len: 4}}},
		},
		Edges: []DepEdge{{From: 0, To: 1, Kind: DepTrue}},
		Waves: [][]int{{0}, {1}},
	}
}

func TestVerifyWavesClean(t *testing.T) {
	if err := VerifyWaves(chainFacts()); err != nil {
		t.Fatalf("legal schedule rejected: %v", err)
	}
	// Independent steps legally share a wave.
	f := WaveFacts{
		Steps: []StepEffects{
			{Name: "a", Reads: []Interval{{Off: 0, Len: 4}}, Writes: []Interval{{Off: 4, Len: 4}}},
			{Name: "b", Reads: []Interval{{Off: 0, Len: 4}}, Writes: []Interval{{Off: 8, Len: 4}}},
		},
		Waves: [][]int{{0, 1}},
	}
	if err := VerifyWaves(f); err != nil {
		t.Fatalf("independent same-wave steps rejected: %v", err)
	}
}

func TestVerifyWavesMissingEdge(t *testing.T) {
	f := chainFacts()
	f.Edges = nil
	wantRule(t, VerifyWaves(f), RuleStepDeps)
}

func TestVerifyWavesMalformedEdge(t *testing.T) {
	f := chainFacts()
	f.Edges = append(f.Edges, DepEdge{From: 1, To: 0, Kind: DepAnti})
	wantRule(t, VerifyWaves(f), RuleStepDeps)
}

func TestVerifyWavesTopoViolation(t *testing.T) {
	f := chainFacts()
	f.Waves = [][]int{{1}, {0}}
	wantRule(t, VerifyWaves(f), RuleWaveLegal)
}

func TestVerifyWavesSameWaveHazards(t *testing.T) {
	// Read-write alias in one wave.
	f := chainFacts()
	f.Waves = [][]int{{0, 1}}
	wantRule(t, VerifyWaves(f), RuleWaveLegal)

	// Write-write hazard in one wave.
	f = WaveFacts{
		Steps: []StepEffects{
			{Name: "a", Writes: []Interval{{Off: 0, Len: 4}}},
			{Name: "b", Writes: []Interval{{Off: 2, Len: 4}}},
		},
		Edges: []DepEdge{{From: 0, To: 1, Kind: DepOutput}},
		Waves: [][]int{{0, 1}},
	}
	wantRule(t, VerifyWaves(f), RuleWaveLegal)
}

func TestVerifyWavesPartition(t *testing.T) {
	// A step scheduled twice.
	f := chainFacts()
	f.Waves = [][]int{{0}, {1}, {1}}
	wantRule(t, VerifyWaves(f), RuleWaveLegal)

	// A step scheduled never.
	f = chainFacts()
	f.Waves = [][]int{{0}}
	wantRule(t, VerifyWaves(f), RuleWaveLegal)

	// An out-of-range step index.
	f = chainFacts()
	f.Waves = [][]int{{0}, {1, 9}}
	wantRule(t, VerifyWaves(f), RuleWaveLegal)
}
