// Package core implements uGrapher's contribution: the unified graph
// operator abstraction (paper §3), the decoupled schedule space (§4), and
// the kernel generator that binds an operator's computation to a
// parallelization strategy (§5).
//
// A graph operator is described by ops.OpInfo (computation) and Schedule
// (parallelization); Compile fuses the two into a Plan, the executable
// analogue of the paper's generated CUDA kernel. Plans execute functionally
// (real outputs) and project themselves as gpu.Kernel for the performance
// simulator.
package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Strategy is one of the four basic parallelization strategies of Fig. 6:
// which hardware unit (thread or warp) owns which work item (vertex or edge).
type Strategy uint8

const (
	// ThreadVertex: one thread per destination vertex; the thread walks the
	// vertex's incoming edges and the full feature vector. Best locality,
	// least parallelism, no atomics (paper Fig. 6b, Table 6).
	ThreadVertex Strategy = iota
	// ThreadEdge: one thread per edge; needs atomic reduction (Fig. 6c).
	ThreadEdge
	// WarpVertex: one warp per destination vertex; lanes split the feature
	// dimension (Fig. 6d).
	WarpVertex
	// WarpEdge: one warp per edge; lanes split features; atomics per feature
	// chunk for vertex outputs (Fig. 6e).
	WarpEdge
)

var strategyCodes = [...]string{"TV", "TE", "WV", "WE"}
var strategyNames = [...]string{"thread-vertex", "thread-edge", "warp-vertex", "warp-edge"}

// Strategies lists the four basic strategies in a stable order.
var Strategies = []Strategy{ThreadVertex, ThreadEdge, WarpVertex, WarpEdge}

// Code returns the Table 9 code ("TV", "TE", "WV", "WE").
func (s Strategy) Code() string {
	if int(s) < len(strategyCodes) {
		return strategyCodes[s]
	}
	return fmt.Sprintf("S%d", uint8(s))
}

// String returns the long name ("thread-vertex", ...).
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Valid reports whether s is one of the four strategies.
func (s Strategy) Valid() bool { return int(s) < len(strategyCodes) }

// VertexParallel reports whether work items are destination vertices.
func (s Strategy) VertexParallel() bool { return s == ThreadVertex || s == WarpVertex }

// ParseStrategy accepts either the code ("WE") or the long name ("warp-edge").
func ParseStrategy(text string) (Strategy, error) {
	for i := range strategyCodes {
		if strategyCodes[i] == text || strategyNames[i] == text {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q", text)
}

// Schedule is the paper's parallel_info triple: a basic strategy plus the
// two fine-grained knobs, V/E grouping and feature tiling (§4.2).
type Schedule struct {
	Strategy Strategy
	// Group is the V/E grouping parameter: each thread/warp processes Group
	// consecutive work items. Higher values trade parallelism for locality
	// and add loop overhead. Must be >= 1.
	Group int
	// Tile is the feature tiling parameter: the feature dimension is split
	// across Tile units, multiplying launched parallelism and adding address
	// arithmetic. Must be >= 1.
	Tile int
}

// DefaultSchedule is the neutral schedule: thread-edge with no grouping or
// tiling, the configuration most often optimal in the paper's Table 9.
var DefaultSchedule = Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1}

// String renders the Table 9 notation, e.g. "WE_G8_T1".
func (s Schedule) String() string {
	return fmt.Sprintf("%s_G%d_T%d", s.Strategy.Code(), s.Group, s.Tile)
}

// ParseSchedule parses the Table 9 notation produced by String.
func ParseSchedule(text string) (Schedule, error) {
	parts := strings.Split(text, "_")
	if len(parts) != 3 || !strings.HasPrefix(parts[1], "G") || !strings.HasPrefix(parts[2], "T") {
		return Schedule{}, fmt.Errorf("core: bad schedule %q (want e.g. WE_G8_T1)", text)
	}
	strat, err := ParseStrategy(parts[0])
	if err != nil {
		return Schedule{}, err
	}
	group, err := strconv.Atoi(parts[1][1:])
	if err != nil {
		return Schedule{}, fmt.Errorf("core: bad group in %q: %v", text, err)
	}
	tile, err := strconv.Atoi(parts[2][1:])
	if err != nil {
		return Schedule{}, fmt.Errorf("core: bad tile in %q: %v", text, err)
	}
	s := Schedule{Strategy: strat, Group: group, Tile: tile}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// Validate checks parameter ranges.
func (s Schedule) Validate() error {
	if !s.Strategy.Valid() {
		return fmt.Errorf("core: invalid strategy %d", s.Strategy)
	}
	if s.Group < 1 {
		return fmt.Errorf("core: group must be >= 1, got %d", s.Group)
	}
	if s.Tile < 1 {
		return fmt.Errorf("core: tile must be >= 1, got %d", s.Tile)
	}
	return nil
}
