package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type runLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestSmokeEveryWorkload makes a tiny run of every workload, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed with
// its unit and nothing else is.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds antgpud and starts servers")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "antgpud")
	if out, err := exec.Command("go", "build", "-o", bin, "antgpu/cmd/antgpud").CombinedOutput(); err != nil {
		t.Fatalf("build antgpud: %v\n%s", err, out)
	}

	saved := append([]workload(nil), workloads...)
	defer copy(workloads, saved)
	for i := range workloads {
		w := &workloads[i]
		w.warmup, w.prefix, w.listLen, w.replay = 2, 12, 14, 1
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json lists a workload the command lacks: %v", err)
		}
	}
	for _, w := range workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.1", "-trace", trace, "-server", bin, "-out", dir}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got runLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace %s: last line is not the JSON result: %v", w.name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w.name, trace,
					got.Correct, got.Attempted, got.Failed, stdout.String())
			}
			for _, m := range want {
				if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s printed as %+v (present %v), want unit %s", w.name, trace, m.Name, v, ok, m.Unit)
				}
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(got.Metrics), len(want))
			}
			printed := append(spec.EndToEnd, struct{ Name, Unit string }{"error_ratio", "ratio"}, struct{ Name, Unit string }{"rss_peak_mb", "MB"})
			for _, m := range printed {
				if !strings.Contains(stdout.String(), "\n  "+m.Name+" ") {
					t.Errorf("%s trace %s: no %s line in the report", w.name, trace, m.Name)
				}
			}
		}
	}
}
