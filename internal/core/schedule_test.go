package core

import (
	"testing"
)

func TestStrategyMeta(t *testing.T) {
	if ThreadVertex.Code() != "TV" || WarpEdge.Code() != "WE" {
		t.Error("codes wrong")
	}
	if ThreadEdge.String() != "thread-edge" || WarpVertex.String() != "warp-vertex" {
		t.Error("names wrong")
	}
	if !ThreadVertex.VertexParallel() || ThreadEdge.VertexParallel() {
		t.Error("VertexParallel wrong")
	}
	if Strategy(9).Code() != "S9" || Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy formatting")
	}
	if Strategy(9).Valid() {
		t.Error("Valid wrong")
	}
	if len(Strategies) != 4 {
		t.Error("Strategies must list the four basics")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range Strategies {
		byCode, err := ParseStrategy(s.Code())
		if err != nil || byCode != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.Code(), byCode, err)
		}
		byName, err := ParseStrategy(s.String())
		if err != nil || byName != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), byName, err)
		}
	}
	if _, err := ParseStrategy("warp-block"); err == nil {
		t.Error("expected error")
	}
}

func TestScheduleStringRoundTrip(t *testing.T) {
	cases := []Schedule{
		{ThreadEdge, 1, 1},
		{WarpEdge, 8, 4},
		{ThreadVertex, 64, 32},
		{WarpVertex, 2, 16},
	}
	for _, s := range cases {
		got, err := ParseSchedule(s.String())
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", s.String(), err)
			continue
		}
		if got != s {
			t.Errorf("round trip %q -> %+v", s.String(), got)
		}
	}
	if (Schedule{WarpEdge, 8, 1}).String() != "WE_G8_T1" {
		t.Error("Table 9 notation wrong")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	bad := []string{"", "WE", "WE_8_1", "XX_G1_T1", "WE_Gx_T1", "WE_G1_Tx", "WE_G0_T1", "WE_G1_T0"}
	for _, text := range bad {
		if _, err := ParseSchedule(text); err == nil {
			t.Errorf("ParseSchedule(%q) should fail", text)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	if err := (Schedule{ThreadEdge, 1, 1}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Schedule{Strategy(9), 1, 1}).Validate(); err == nil {
		t.Error("invalid strategy should fail")
	}
	if err := (Schedule{ThreadEdge, 0, 1}).Validate(); err == nil {
		t.Error("zero group should fail")
	}
	if err := (Schedule{ThreadEdge, 1, -1}).Validate(); err == nil {
		t.Error("negative tile should fail")
	}
	if err := DefaultSchedule.Validate(); err != nil {
		t.Error("default schedule must validate")
	}
}
