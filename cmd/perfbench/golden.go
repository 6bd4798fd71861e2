package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"convmeter/internal/experiments"
)

// The golden outputs are embedded so that the binary checks them from
// any working directory. -update-golden regenerates them.
//
//go:embed testdata
var goldenFS embed.FS

const (
	inferGoldenFile      = "infer_golden.json"
	trainGoldenFile      = "train_golden.json"
	reproduceGoldenFile  = "reproduce_seed1.txt"
	reproduceQuickGolden = "reproduce_quick_seed1.txt"
	// trainGoldenSteps is the length of the golden loss curve the train
	// warm-up replays.
	trainGoldenSteps = 2
)

func readGolden(name string) ([]byte, error) {
	data, err := goldenFS.ReadFile("testdata/" + name)
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w (regenerate with -update-golden)", name, err)
	}
	return data, nil
}

// loadInferGolden returns each infer model's logits for its golden
// image under the golden-seed weights.
func loadInferGolden() (map[string][]float32, error) {
	data, err := readGolden(inferGoldenFile)
	if err != nil {
		return nil, err
	}
	var g map[string][]float32
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", inferGoldenFile, err)
	}
	return g, nil
}

// loadTrainGolden returns the golden-seed trainer's first losses.
func loadTrainGolden() ([]float64, error) {
	data, err := readGolden(trainGoldenFile)
	if err != nil {
		return nil, err
	}
	var losses []float64
	if err := json.Unmarshal(data, &losses); err != nil {
		return nil, fmt.Errorf("golden %s: %w", trainGoldenFile, err)
	}
	return losses, nil
}

// loadReproduceGolden returns the golden-seed reproduction text at full
// scale or in Quick mode.
func loadReproduceGolden(quick bool) (string, error) {
	name := reproduceGoldenFile
	if quick {
		name = reproduceQuickGolden
	}
	data, err := readGolden(name)
	return string(data), err
}

// renderResults renders experiment results as text: every table, every
// headline statistic with all its digits, and every data series.
func renderResults(res []*experiments.Result) string {
	var sb strings.Builder
	for _, r := range res {
		fmt.Fprintf(&sb, "== %s: %s ==\n%s", r.ID, r.Title, r.Text)
		keys := make([]string, 0, len(r.Stats))
		for k := range r.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "stat %s = %s\n", k, strconv.FormatFloat(r.Stats[k], 'g', -1, 64))
		}
		keys = keys[:0]
		for k := range r.Series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "series %s\n%s", k, r.Series[k])
		}
	}
	return sb.String()
}

// updateGolden recomputes every golden output with the current code and
// writes it into dir.
func updateGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, data []byte) error {
		fmt.Fprintf(os.Stderr, "perfbench: writing %s\n", filepath.Join(dir, name))
		return os.WriteFile(filepath.Join(dir, name), data, 0o644)
	}

	logits := map[string][]float32{}
	for _, name := range inferModels {
		g, _, err := buildModel(name)
		if err != nil {
			return err
		}
		m, err := newInferModel(g, name, nil)
		if err != nil {
			return err
		}
		out, err := m.e.Run(m.gold)
		if err != nil {
			return err
		}
		logits[name] = out.Data
	}
	data, err := json.Marshal(logits)
	if err != nil {
		return err
	}
	if err := write(inferGoldenFile, append(data, '\n')); err != nil {
		return err
	}

	g, _, err := buildModel(trainModel)
	if err != nil {
		return err
	}
	tr, src, err := newTrainer(g, goldenSeed, nil)
	if err != nil {
		return err
	}
	var losses []float64
	for i := 0; i < trainGoldenSteps; i++ {
		loss, err := tr.Step(src)
		if err != nil {
			return err
		}
		if math.IsNaN(loss) {
			return fmt.Errorf("train: NaN loss at golden step %d", i)
		}
		losses = append(losses, loss)
	}
	if data, err = json.Marshal(losses); err != nil {
		return err
	}
	if err := write(trainGoldenFile, append(data, '\n')); err != nil {
		return err
	}

	for _, quick := range []bool{true, false} {
		res, err := runReproduce(reproduceIDs(), experiments.Config{Seed: goldenSeed, Quick: quick})
		if err != nil {
			return err
		}
		name := reproduceGoldenFile
		if quick {
			name = reproduceQuickGolden
		}
		if err := write(name, []byte(renderResults(res))); err != nil {
			return err
		}
	}
	return nil
}
