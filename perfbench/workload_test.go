package main

import (
	"bytes"
	"strings"
	"testing"

	"antgpu/internal/tsp"
)

func bodies(t *testing.T, w *workload, seed uint64, stream, n int) [][]byte {
	t.Helper()
	js, err := w.jobs(seed, stream, n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range js {
		out[i] = js[i].body
	}
	return out
}

func TestJobListDeterministicPerSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := bodies(t, w, 7, streamMeasured, 6)
		b := bodies(t, w, 7, streamMeasured, 6)
		c := bodies(t, w, 8, streamMeasured, 6)
		warm := bodies(t, w, 7, streamWarm, 6)
		for j := range a {
			if !bytes.Equal(a[j], b[j]) {
				t.Errorf("%s: job %d differs between two generations with seed 7", w.name, j)
			}
			if bytes.Equal(a[j], c[j]) {
				t.Errorf("%s: job %d is the same for seeds 7 and 8", w.name, j)
			}
			if bytes.Equal(a[j], warm[j]) {
				t.Errorf("%s: warm-up job %d repeats measured job %d", w.name, j, j)
			}
			if j > 0 && bytes.Equal(a[j], a[j-1]) {
				t.Errorf("%s: jobs %d and %d are identical", w.name, j-1, j)
			}
		}
	}
}

func TestUploadsAreDistinctInstances(t *testing.T) {
	w, err := findWorkload("upload-distinct")
	if err != nil {
		t.Fatal(err)
	}
	js, err := w.jobs(1, streamMeasured, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, j := range js {
		in, err := tsp.Parse(strings.NewReader(j.text))
		if err != nil {
			t.Fatal(err)
		}
		if in.N() != w.uploadN {
			t.Fatalf("upload has %d cities, want %d", in.N(), w.uploadN)
		}
		h := in.ContentHash()
		if seen[h] {
			t.Fatal("two uploads share content, so the derived-data cache would hit")
		}
		seen[h] = true
	}
}

func TestWorkloadsKeepTheirInvariants(t *testing.T) {
	for _, w := range workloads {
		if w.prefix < 100 || w.prefix > w.listLen || w.replay > w.prefix {
			t.Errorf("%s: need 100 <= prefix <= listLen and replay <= prefix", w.name)
		}
	}
}
