package analysis

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDesignRuleTableMatchesRuleLists: the rule-id column of DESIGN.md §9's
// verifier table names exactly the rules the verifiers check — the union of
// the lists `ugrapher-lint -rules` prints for them — so a rule added,
// renamed or dropped in one place without the other fails here.
func TestDesignRuleTableMatchesRuleLists(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	_, sec, ok := strings.Cut(string(raw), "\n## 9. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 9")
	}
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	var documented []string
	for _, line := range strings.Split(sec, "\n") {
		// A rule row opens with its id in backticks: | `rule-id` | layer | ...
		cell, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		id, _, ok := strings.Cut(cell, "`")
		if !ok {
			t.Fatalf("unterminated rule id in %q", line)
		}
		documented = append(documented, id)
	}
	var checked []string
	for _, list := range [][]string{ProgramRules, PlanRules, WaveRules, RowRules, {RuleShardNoAlias}} {
		for _, id := range list {
			if !slices.Contains(checked, id) {
				checked = append(checked, id)
			}
		}
	}
	for _, id := range checked {
		if !slices.Contains(documented, id) {
			t.Errorf("rule %q is checked but missing from DESIGN.md §9's table", id)
		}
	}
	seen := map[string]bool{}
	for _, id := range documented {
		if seen[id] {
			t.Errorf("DESIGN.md §9's table lists rule %q twice", id)
		}
		seen[id] = true
		if !slices.Contains(checked, id) {
			t.Errorf("DESIGN.md §9's table lists %q, which no verifier checks", id)
		}
	}
}
