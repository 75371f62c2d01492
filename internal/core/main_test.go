package core

import (
	"os"
	"testing"

	"repro/internal/vec/vectest"
)

// TestMain lets the whole suite run on the Go loops (-vec.generic).
func TestMain(m *testing.M) { os.Exit(vectest.Main(m)) }
