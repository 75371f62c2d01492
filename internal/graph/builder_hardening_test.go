package graph

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Hardening tests for the untrusted edge-list loader and the Validate
// post-condition: a hostile or corrupt input must fail with a located error,
// never drive a huge allocation or build a graph that panics mid-kernel.

func TestReadEdgeListRejectsNegativeIDs(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"negative header", "-3 2\n0 1\n", "negative count in header"},
		{"negative src", "4 2\n-1 2\n", "negative vertex id"},
		{"negative dst", "4 2\n1 -2\n", "negative vertex id"},
		{"src out of range", "4 1\n4 0\n", "out of range"},
		{"dst out of range", "4 1\n0 9\n", "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("accepted %q", c.in)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestReadEdgeListErrorsCarryLineNumbers(t *testing.T) {
	// The bad line is line 5: a header, a comment, a blank line, one good
	// edge, then garbage. Comments and blanks still count toward the
	// physical line number (that is what an editor shows).
	in := "3 2\n# comment\n\n0 1\n1 nope\n"
	_, err := ReadEdgeList(strings.NewReader(in))
	if err == nil {
		t.Fatal("accepted malformed edge line")
	}
	if !strings.Contains(err.Error(), "line 5") {
		t.Errorf("error = %v, want it located at line 5", err)
	}
}

func TestReadEdgeListLimits(t *testing.T) {
	lim := Limits{MaxVertices: 100, MaxEdges: 2}
	if _, err := ReadEdgeListLimits(strings.NewReader("101 1\n0 1\n"), lim); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("vertex limit not enforced: %v", err)
	}
	if _, err := ReadEdgeListLimits(strings.NewReader("10 3\n0 1\n"), lim); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("declared edge count over limit not rejected: %v", err)
	}
	// A header that under-declares does not dodge the cap: the third edge
	// line trips it even though the header said 2.
	if _, err := ReadEdgeListLimits(strings.NewReader("10 2\n0 1\n1 2\n2 3\n"), lim); err == nil ||
		!strings.Contains(err.Error(), "more than 2 edges") {
		t.Errorf("body edge cap not enforced: %v", err)
	}
	// Within limits everything still loads.
	g, err := ReadEdgeListLimits(strings.NewReader("10 2\n0 1\n1 2\n"), lim)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 || g.NumEdges() != 2 {
		t.Errorf("graph = %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
}

// TestReadEdgeListLyingHeader: a header declaring a huge edge count must not
// pre-allocate for it — the loader caps the preallocation and grows as lines
// actually arrive. (If this allocated the declared 1<<29 edges the test
// would OOM, so surviving is the assertion.)
func TestReadEdgeListLyingHeader(t *testing.T) {
	in := "4 536870912\n0 1\n2 3\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want the 2 actually present", g.NumEdges())
	}
}

func TestReadEdgeListRoundTripUnderLimits(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 0, 1}, {1, 1, 2}, {2, 4, 0}, {3, 2, 2}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeListLimits(&buf, Limits{MaxVertices: 5, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Error("round trip changed the graph")
	}
}

// TestValidateCatchesCorruptIndexes corrupts each invariant of a valid
// graph's dual-CSR indexes in turn and checks Validate reports it (instead
// of a later InEdges slice panic inside a kernel).
func TestValidateCatchesCorruptIndexes(t *testing.T) {
	build := func() *Graph {
		return mustGraph(t, 4, []Edge{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 3, 0}, {4, 0, 2}})
	}
	corrupt := []struct {
		name string
		mut  func(g *Graph)
		want string
	}{
		{"in ptr does not start at 0", func(g *Graph) { g.inPtr[0] = 1 }, "start at 0"},
		{"in ptr decreases", func(g *Graph) { g.inPtr[2] = g.inPtr[1] - 1; g.inPtr[1]++ }, "decreases"},
		{"out ptr decreases", func(g *Graph) { g.outPtr[1] = g.outPtr[3] + 1 }, "decreases"},
		{"ptr does not cover edges", func(g *Graph) { g.inPtr[len(g.inPtr)-1]-- }, "cover"},
		{"coo length mismatch", func(g *Graph) { g.edgeSrc = g.edgeSrc[:len(g.edgeSrc)-1] }, "length mismatch"},
		{"endpoint out of range", func(g *Graph) { g.edgeDst[0] = 99 }, "out of range"},
		{"negative endpoint", func(g *Graph) { g.edgeSrc[1] = -1 }, "out of range"},
	}
	for _, c := range corrupt {
		t.Run(c.name, func(t *testing.T) {
			g := build()
			if err := g.Validate(); err != nil {
				t.Fatalf("fresh graph invalid: %v", err)
			}
			c.mut(g)
			err := g.Validate()
			if err == nil {
				t.Fatal("Validate accepted corrupted graph")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want mention of %q", err, c.want)
			}
		})
	}
}

// FuzzReadEdgeListLimits: whatever an edge-list file holds and whatever the
// bounds, the loader does not panic, and it ends one of two ways — an error
// carrying the package prefix (or the scanner's line-too-long error), or a
// graph within the bounds whose incoming CSR is consistent: InPtr runs from 0
// to NumEdges without decreasing, and every in-edge position names an edge, once,
// whose destination is the row and whose source InSrcs holds. The bounds are
// kept small so that a header may not declare a graph the fuzzer cannot hold.
func FuzzReadEdgeListLimits(f *testing.F) {
	// The accepted forms; testdata/fuzz/FuzzReadEdgeListLimits holds the
	// rejected and borderline ones.
	for _, s := range []string{
		"3 2\n0 1\n1 2\n", "# comment\n% comment\n4 3\n\n3 0\n0 3\n3 3\n", "5 0\n", "2 1\r\n1 0\r\n",
	} {
		f.Add(s, uint16(100), uint16(100))
	}
	f.Fuzz(func(t *testing.T, in string, maxV, maxE uint16) {
		lim := Limits{MaxVertices: 1 + int(maxV)%4096, MaxEdges: 1 + int(maxE)%8192}
		g, err := ReadEdgeListLimits(strings.NewReader(in), lim)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "graph: ") && !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("ReadEdgeListLimits(%q) error %q lacks the package prefix", in, err)
			}
			return
		}
		n, m := g.NumVertices(), g.NumEdges()
		if n > lim.MaxVertices || m > lim.MaxEdges {
			t.Fatalf("ReadEdgeListLimits(%q) under %+v built %d vertices, %d edges", in, lim, n, m)
		}
		inPtr, inSrcs, inEdges := g.InPtr(), g.InSrcs(), g.InEdgeIDs()
		if len(inPtr) != n+1 || inPtr[0] != 0 || int(inPtr[n]) != m || len(inSrcs) != m || len(inEdges) != m {
			t.Fatalf("ReadEdgeListLimits(%q): in-CSR of %d pointers ending at %d, %d sources, %d ids for %d vertices, %d edges",
				in, len(inPtr), inPtr[len(inPtr)-1], len(inSrcs), len(inEdges), n, m)
		}
		seen := make([]bool, m)
		srcs, dsts := g.EdgeSrcs(), g.EdgeDsts()
		for v := 0; v < n; v++ {
			if inPtr[v+1] < inPtr[v] {
				t.Fatalf("ReadEdgeListLimits(%q): InPtr decreases at vertex %d", in, v)
			}
			for p := inPtr[v]; p < inPtr[v+1]; p++ {
				e := inEdges[p]
				if e < 0 || int(e) >= m || seen[e] || int(dsts[e]) != v || srcs[e] != inSrcs[p] {
					t.Fatalf("ReadEdgeListLimits(%q): in-edge position %d of vertex %d names edge %d inconsistently", in, p, v, e)
				}
				seen[e] = true
			}
		}
	})
}
