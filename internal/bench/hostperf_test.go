package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestHostPerfSmall runs the host-performance harness on the smallest
// instance with one timed repeat per kernel — a structural check, not a
// performance assertion, so it stays cheap and noise-proof.
func TestHostPerfSmall(t *testing.T) {
	r, err := HostPerf(HostPerfConfig{Instance: "att48", Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instance != "att48" || r.Repeats != 1 {
		t.Fatalf("config not echoed: %+v", r)
	}
	if r.NumCPU < 1 || r.GoMaxProcs < 1 {
		t.Errorf("host shape not recorded: num_cpu %d, gomaxprocs %d", r.NumCPU, r.GoMaxProcs)
	}
	names := map[string]bool{}
	for _, k := range r.Kernels {
		names[k.Name] = true
		if k.LaneOps <= 0 {
			t.Errorf("%s: lane-ops %d", k.Name, k.LaneOps)
		}
		if k.ScalarNsPerLaneOp <= 0 || k.VectorNsPerLaneOp <= 0 || k.Speedup <= 0 {
			t.Errorf("%s: non-positive measurement: %+v", k.Name, k)
		}
	}
	// The acceptance set: tour construction and pheromone update must be
	// among the measured kernels.
	for _, want := range []string{"tour-data", "tour-data-tex", "choice", "rngfill", "twoopt"} {
		if !names[want] {
			t.Errorf("kernel %q missing from the harness (have %v)", want, names)
		}
	}
	pher := 0
	for name := range names {
		if strings.HasPrefix(name, "pher-") {
			pher++
		}
	}
	if pher != 5 {
		t.Errorf("expected all 5 pheromone versions, found %d (%v)", pher, names)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded HostPerfResult
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if len(decoded.Kernels) != len(r.Kernels) {
		t.Fatalf("JSON round trip lost kernels: %d vs %d", len(decoded.Kernels), len(r.Kernels))
	}

	buf.Reset()
	r.Format(&buf)
	if !strings.Contains(buf.String(), "host performance:") {
		t.Errorf("Format output missing header:\n%s", buf.String())
	}
}
