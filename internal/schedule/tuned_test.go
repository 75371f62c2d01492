package schedule_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/models"
	"repro/internal/schedule"
)

// taskRecorder is a tuned engine that records the distinct tasks a model's
// compilation asks it to tune and answers each with the default schedule, so
// collecting them simulates nothing.
type taskRecorder struct {
	*models.TunedEngine
	seen  map[string]bool
	tasks []schedule.Task
}

func (r *taskRecorder) ScheduleFor(t schedule.Task) core.Schedule {
	key := fmt.Sprintf("%v/%d/%d/%d", t.Op, t.Feat, t.ACols, t.BCols)
	if !r.seen[key] {
		r.seen[key] = true
		r.tasks = append(r.tasks, t)
	}
	return core.DefaultSchedule
}

// tunedTasks returns the tasks a tuned engine searches when it compiles model
// on the dataset at 32 input features and 8 classes, the in-process
// benchmark's shape.
func tunedTasks(t *testing.T, model, dataset string) []schedule.Task {
	t.Helper()
	g, _, err := datasets.Load(dataset)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	rec := &taskRecorder{TunedEngine: models.NewTunedEngine(gpu.V100()), seen: map[string]bool{}}
	if _, err := models.CompileModel(m, g, 32, 8, rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.tasks) == 0 {
		t.Fatalf("%s on %s tunes no task", model, dataset)
	}
	return rec.tasks
}

// TestBestIsGridSearchWinner: the branch-and-bound search returns the grid
// search's first candidate field for field, gpu.Metrics included, on every
// task the six models tune on CO and PR, with one goroutine and with four.
// Each Best starts from an empty memo, so its own simulations are the ones
// compared. -short (make race) keeps CO.
func TestBestIsGridSearchWinner(t *testing.T) {
	opts := []gpu.Option{gpu.WithMaxSampledBlocks(8)}
	datasetNames := []string{"CO", "PR"}
	if testing.Short() {
		datasetNames = datasetNames[:1]
	}
	for _, dataset := range datasetNames {
		for _, m := range models.All() {
			for _, task := range tunedTasks(t, m.Name(), dataset) {
				space := schedule.PrunedSpace(task)
				name := fmt.Sprintf("%s/%s/%v feat %d", dataset, m.Name(), task.Op, task.Feat)
				ranked := schedule.GridSearch(task, space, opts...)
				if len(ranked) == 0 {
					t.Fatalf("%s: nothing compiled", name)
				}
				for _, procs := range []int{1, 4} {
					schedule.ResetMemo()
					prev := runtime.GOMAXPROCS(procs)
					got, ok := schedule.Best(task, space, opts...)
					runtime.GOMAXPROCS(prev)
					if !ok || !reflect.DeepEqual(got, ranked[0]) {
						t.Errorf("%s at GOMAXPROCS=%d: Best = %+v, %v\nGridSearch[0] = %+v", name, procs, got, ok, ranked[0])
					}
				}
			}
		}
	}
}

// TestBestSimulatesFewerCandidates: on the two tasks GAT tunes on PR, Best
// evaluates fewer candidates than the pruned space holds, at the tuned
// engine's fidelity.
func TestBestSimulatesFewerCandidates(t *testing.T) {
	tasks := tunedTasks(t, "GAT", "PR")
	if len(tasks) != 2 {
		t.Fatalf("GAT on PR tunes %d tasks, want 2", len(tasks))
	}
	for _, task := range tasks {
		space := schedule.PrunedSpace(task)
		schedule.ResetMemo()
		before, _ := schedule.MemoStats()
		if _, ok := schedule.Best(task, space, gpu.WithMaxSampledBlocks(96)); !ok {
			t.Fatalf("%v feat %d: no winner", task.Op, task.Feat)
		}
		after, _ := schedule.MemoStats()
		if n := after - before; n >= int64(len(space)) {
			t.Errorf("%v feat %d: Best evaluated %d of %d candidates", task.Op, task.Feat, n, len(space))
		} else {
			t.Logf("%v feat %d: Best evaluated %d of %d candidates", task.Op, task.Feat, n, len(space))
		}
	}
}
