package harness

import (
	"fmt"
	"text/tabwriter"

	"graphword2vec/internal/cliutil"
)

// Table1Row reports one dataset's properties (paper Table 1: vocabulary
// words, training words, size on disk).
type Table1Row struct {
	Dataset       string
	VocabWords    int
	TrainingWords int64
	SizeBytes     int64
}

// Table1 regenerates the paper's Table 1 for the simulated datasets.
func Table1(opts Options) ([]Table1Row, error) {
	opts = opts.WithDefaults()
	datasets, err := LoadAll(opts)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, d := range datasets {
		rows = append(rows, Table1Row{
			Dataset:       d.Name,
			VocabWords:    d.Vocab.Size(),
			TrainingWords: d.Vocab.TotalWords(),
			SizeBytes:     d.TextBytes,
		})
	}
	w := tabwriter.NewWriter(opts.out(), 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Table 1: Datasets and their properties (scale=%s)\n", opts.Scale)
	fmt.Fprintln(w, "Dataset\tVocabulary Words\tTraining Words\tSize")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", r.Dataset, r.VocabWords, r.TrainingWords, cliutil.FormatBytes(float64(r.SizeBytes)))
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return rows, nil
}
