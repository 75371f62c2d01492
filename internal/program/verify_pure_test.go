package program_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
)

// deepCopy copies v with nothing shared: pointers, slices and interfaces are
// followed, unexported struct fields are copied by value.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		if v.Kind() == reflect.Interface {
			c := reflect.New(v.Type()).Elem()
			c.Set(deepCopy(v.Elem()))
			return c
		}
		c := reflect.New(v.Type().Elem())
		c.Elem().Set(deepCopy(v.Elem()))
		return c
	case reflect.Slice:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		for i := 0; i < v.NumField(); i++ {
			if c.Field(i).CanSet() {
				c.Field(i).Set(deepCopy(v.Field(i)))
			}
		}
		return c
	}
	return v
}

// TestVerifyMutatesNothing: the verifier's rules read the compiled artifacts
// themselves, not copies, so Verify must leave every one of them as it found
// it — on every model of the verifier's silent matrix (6 models × 4
// strategies × reference/parallel).
func TestVerifyMutatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := graph.NewBuilder(300)
	for i := 0; i < 2500; i++ {
		b.AddEdge(int32(rng.Intn(300)), int32(rng.Intn(300)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, mdl := range models.All() {
		for _, s := range core.Strategies {
			for _, be := range []core.ExecBackend{core.ReferenceBackend(), core.NewParallelBackend(2)} {
				sched := core.Schedule{Strategy: s, Group: 1, Tile: 1}
				eng := &models.FixedEngine{EngineName: "fixed", Dev: gpu.V100(), AggrSchedule: sched, MsgCSchedule: sched, Fuses: true, Compute: be}
				cp, err := models.CompileModel(mdl, g, 12, 5, eng)
				if err != nil {
					t.Fatalf("%s/%s/%s: compile: %v", mdl.Name(), s.Code(), be.Name(), err)
				}
				want := deepCopy(reflect.ValueOf(cp.Verified())).Interface()
				if rep := cp.Verify(); !rep.OK() {
					t.Fatalf("%s/%s/%s: violations on a legal compile: %v", mdl.Name(), s.Code(), be.Name(), rep.Diags)
				}
				if !reflect.DeepEqual(cp.Verified(), want) {
					t.Errorf("%s/%s/%s: Verify changed what it checked", mdl.Name(), s.Code(), be.Name())
				}
			}
		}
	}
}
