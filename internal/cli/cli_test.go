package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"convmeter/internal/bench"
	"convmeter/internal/core"
	"convmeter/internal/graph"
	"convmeter/internal/hwsim"
)

// run executes a CLI invocation and returns exit code, stdout and stderr.
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := Run(args, Env{Stdout: &out, Stderr: &errBuf})
	return code, out.String(), errBuf.String()
}

// writeSmallDataset writes a reduced benchmark CSV for fast fitting.
func writeSmallDataset(t *testing.T, training bool) string {
	t.Helper()
	var samples []core.Sample
	var err error
	if training {
		sc := bench.DefaultDistributedScenario(3)
		sc.Models = []string{"resnet18", "resnet50", "mobilenet_v2", "alexnet"}
		sc.Images = []int{64}
		sc.Batches = []int{16, 64}
		samples, err = bench.CollectTraining(sc)
	} else {
		sc := bench.DefaultInferenceScenario(hwsim.A100(), 3)
		sc.Models = []string{"resnet18", "resnet50", "mobilenet_v2", "alexnet"}
		sc.Images = []int{64, 128}
		sc.Batches = []int{1, 8, 64}
		samples, err = bench.CollectInference(sc)
	}
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := bench.WriteCSV(f, samples); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunNoArgs(t *testing.T) {
	code, _, errOut := run(t)
	if code != 2 || !strings.Contains(errOut, "commands:") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestRunUnknownCommand(t *testing.T) {
	code, _, errOut := run(t, "frobnicate")
	if code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestHelp(t *testing.T) {
	code, out, _ := run(t, "help")
	if code != 0 || !strings.Contains(out, "scale") {
		t.Fatalf("help failed: %d %q", code, out)
	}
}

func TestModelsAndBlocks(t *testing.T) {
	code, out, _ := run(t, "models")
	if code != 0 || !strings.Contains(out, "resnet50") || !strings.Contains(out, "vit_b_16") {
		t.Fatalf("models output incomplete")
	}
	code, out, _ = run(t, "blocks")
	if code != 0 || !strings.Contains(out, "MBConv") {
		t.Fatalf("blocks output incomplete")
	}
}

func TestMetricsCommand(t *testing.T) {
	code, out, _ := run(t, "metrics", "-model", "resnet50", "-image", "224")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "25557032") {
		t.Fatalf("missing parameter count: %q", out)
	}
	code, _, errOut := run(t, "metrics", "-model", "nope")
	if code != 1 || !strings.Contains(errOut, "unknown model") {
		t.Fatalf("bad model not rejected: %d %q", code, errOut)
	}
}

func TestGraphCommandEmitsValidJSON(t *testing.T) {
	code, out, _ := run(t, "graph", "-model", "squeezenet1_1", "-image", "64")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var g graph.Graph
	if err := json.Unmarshal([]byte(out), &g); err != nil {
		t.Fatalf("output is not a valid graph: %v", err)
	}
	if g.Name != "squeezenet1_1" {
		t.Fatalf("graph name %q", g.Name)
	}
}

func TestDotCommand(t *testing.T) {
	code, out, _ := run(t, "dot", "-model", "alexnet")
	if code != 0 || !strings.HasPrefix(out, "digraph") {
		t.Fatalf("dot output wrong: %d %q", code, out[:min(40, len(out))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFitPredictRoundTripViaCoefficients(t *testing.T) {
	data := writeSmallDataset(t, false)
	coeff := filepath.Join(t.TempDir(), "model.json")
	code, _, errOut := run(t, "fit", "-kind", "inference", "-data", data, "-out", coeff)
	if code != 0 {
		t.Fatalf("fit failed: %s", errOut)
	}
	raw, err := os.ReadFile(coeff)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "convmeter-inference-v1") {
		t.Fatalf("coefficient file malformed: %s", raw)
	}
	code, out, errOut := run(t, "predict", "-model", "densenet121", "-image", "128", "-batch", "32", "-coeff", coeff)
	if code != 0 {
		t.Fatalf("predict failed: %s", errOut)
	}
	if !strings.Contains(out, "images/s") {
		t.Fatalf("predict output: %q", out)
	}
}

func TestFitTrainingAndScale(t *testing.T) {
	data := writeSmallDataset(t, true)
	coeff := filepath.Join(t.TempDir(), "train.json")
	code, _, errOut := run(t, "fit", "-kind", "train-multi", "-data", data, "-out", coeff)
	if code != 0 {
		t.Fatalf("fit failed: %s", errOut)
	}
	code, out, errOut := run(t, "train", "-model", "efficientnet_b0", "-image", "64",
		"-batch", "32", "-gpus", "16", "-nodes", "4", "-coeff", coeff)
	if code != 0 {
		t.Fatalf("train failed: %s", errOut)
	}
	for _, want := range []string{"forward:", "backward:", "gradient:", "epoch over"} {
		if !strings.Contains(out, want) {
			t.Fatalf("train output missing %q: %q", want, out)
		}
	}
	// Weak scaling.
	code, out, errOut = run(t, "scale", "-model", "resnet50", "-image", "64", "-coeff", coeff, "-max-nodes", "8")
	if code != 0 {
		t.Fatalf("scale failed: %s", errOut)
	}
	if !strings.Contains(out, "turning point") {
		t.Fatalf("scale output: %q", out)
	}
	// Strong scaling.
	code, out, errOut = run(t, "scale", "-model", "resnet50", "-image", "64", "-coeff", coeff,
		"-global-batch", "512", "-max-nodes", "8")
	if code != 0 {
		t.Fatalf("strong scale failed: %s", errOut)
	}
	if !strings.Contains(out, "strong scaling") || !strings.Contains(out, "speedup") {
		t.Fatalf("strong-scaling output: %q", out)
	}
}

func TestDissectCommand(t *testing.T) {
	data := writeSmallDataset(t, false)
	coeff := filepath.Join(t.TempDir(), "m.json")
	if code, _, errOut := run(t, "fit", "-kind", "inference", "-data", data, "-out", coeff); code != 0 {
		t.Fatalf("fit failed: %s", errOut)
	}
	code, out, errOut := run(t, "dissect", "-model", "resnet50", "-image", "128", "-batch", "32", "-coeff", coeff)
	if code != 0 {
		t.Fatalf("dissect failed: %s", errOut)
	}
	for _, seg := range []string{"stem", "layer1", "layer2", "layer3", "layer4", "head"} {
		if !strings.Contains(out, seg) {
			t.Fatalf("dissection missing segment %q:\n%s", seg, out)
		}
	}
	if !strings.Contains(out, "share") {
		t.Fatal("dissection missing share column")
	}
}

func TestSegmentsCoverGraph(t *testing.T) {
	g, _, err := buildWithMetrics("resnet18", 64)
	if err != nil {
		t.Fatal(err)
	}
	segs := segments(g)
	if len(segs) < 3 {
		t.Fatalf("too few segments: %d", len(segs))
	}
	if segs[0].from != 1 || segs[len(segs)-1].to != len(g.Nodes) {
		t.Fatal("segments do not tile the node range")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].from != segs[i-1].to {
			t.Fatal("gap between segments")
		}
		if segs[i].name == segs[i-1].name {
			t.Fatal("adjacent segments share a prefix and should have merged")
		}
	}
}

func TestTimelineCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, errOut := run(t, "timeline", "-model", "resnet18", "-image", "64", "-out", path)
	if code != 0 {
		t.Fatalf("timeline failed: %s", errOut)
	}
	if !strings.Contains(errOut, "step") {
		t.Fatalf("summary missing: %q", errOut)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 4 {
		t.Fatalf("trace has only %d events", len(doc.TraceEvents))
	}
}

// TestOutCreatesParentDirs: fit -out and timeline -out write through
// obs.Export, so each creates its file, missing parent directories
// included, and the file parses.
func TestOutCreatesParentDirs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet")
	data := writeSmallDataset(t, false)
	coeff := filepath.Join(dir, "fit", "coeff.json")
	if code, _, errOut := run(t, "fit", "-kind", "inference", "-data", data, "-out", coeff); code != 0 {
		t.Fatalf("fit -out into a new directory failed: %s", errOut)
	}
	raw, err := os.ReadFile(coeff)
	if err != nil {
		t.Fatal(err)
	}
	var m core.InferenceModel
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("fit -out file does not parse: %v", err)
	}

	trace := filepath.Join(dir, "timeline", "trace.json")
	if code, _, errOut := run(t, "timeline", "-model", "resnet18", "-image", "64", "-out", trace); code != 0 {
		t.Fatalf("timeline -out into a new directory failed: %s", errOut)
	}
	raw, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("timeline -out file: %d events, err %v", len(doc.TraceEvents), err)
	}
}

func TestFitRejectsUnknownKind(t *testing.T) {
	code, _, errOut := run(t, "fit", "-kind", "wizardry")
	if code != 1 || !strings.Contains(errOut, "unknown fit kind") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestPredictUnknownDevice(t *testing.T) {
	code, _, errOut := run(t, "predict", "-device", "abacus", "-model", "resnet18")
	if code != 1 || !strings.Contains(errOut, "unknown device") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestBadFlagReturnsError(t *testing.T) {
	code, _, _ := run(t, "metrics", "-bogus-flag")
	if code != 1 {
		t.Fatalf("bad flag exit = %d", code)
	}
}
