package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"antgpu/internal/tsp"
)

// workload is one job shape. Every job of a workload differs only in its
// ACO seed and, for uploads, in its instance; see README.md for why each
// workload exists.
type workload struct {
	name    string
	bench   string // named benchmark instance; empty for per-job uploads
	uploadN int    // cities per generated upload
	backend string // submitted backend; empty lets the service pick
	want    string // backend the job record must report
	ants    int    // 0 keeps the default m = n
	iters   int
	twoOpt  bool

	warmup int // closed-loop jobs run before the measured phase
	// prefix is the leading part of the measured job list that every run
	// completes, however long it takes: tour_ratio averages over it and
	// rss_mb samples across it, so neither depends on how many jobs a run
	// happens to fit into its seconds. It is at least 100 so that p90
	// always has 10 jobs beyond it.
	prefix  int
	listLen int // measured jobs generated; a run that exhausts them ends early
	replay  int // jobs the traced run replays in-process
}

var workloads = []workload{
	{name: "svc-small", bench: "att48", want: "cpu", iters: 5,
		warmup: 200, prefix: 1500, listLen: 40000, replay: 40},
	{name: "engine-large", bench: "pr1002", want: "tensor", ants: 25, iters: 2, twoOpt: true,
		warmup: 4, prefix: 100, listLen: 4000, replay: 8},
	{name: "paper-gpu", bench: "kroC100", backend: "gpu", want: "gpu", iters: 2,
		warmup: 6, prefix: 150, listLen: 8000, replay: 8},
	{name: "upload-distinct", uploadN: 500, want: "tensor", ants: 25, iters: 1,
		warmup: 10, prefix: 150, listLen: 400, replay: 16},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// job is one generated solve request.
type job struct {
	seed uint64
	body []byte    // the POST /v1/solve payload
	inst *instance // the checker's copy of the instance generated or loaded here
	text string    // its TSPLIB text (the upload, for uploads)
}

// Streams keep the warm-up jobs, the measured jobs and the upload
// instances apart, so the measured list does not depend on how many
// warm-up jobs a workload runs.
const (
	streamWarm = iota + 1
	streamMeasured
	streamUpload
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// derive maps (workload seed, stream, index) to a seed in [1, 2^31].
func derive(seed uint64, stream, i int) uint64 {
	return 1 + splitmix(splitmix(seed^uint64(stream)<<56)+uint64(i))%(1<<31)
}

type submitParams struct {
	Ants int    `json:"ants,omitempty"`
	Seed uint64 `json:"seed"`
}

type submitRequest struct {
	Benchmark   string       `json:"benchmark,omitempty"`
	TSPLIB      string       `json:"tsplib,omitempty"`
	Iterations  int          `json:"iterations"`
	Backend     string       `json:"backend,omitempty"`
	Params      submitParams `json:"params"`
	LocalSearch bool         `json:"local_search,omitempty"`
	IncludeTour bool         `json:"include_tour"`
}

// jobs generates count jobs of one stream. The result depends only on the
// workload, the seed, the stream and count.
func (w *workload) jobs(seed uint64, stream, count int) ([]job, error) {
	var shared *job
	if w.bench != "" {
		in, err := tsp.LoadBenchmark(w.bench)
		if err != nil {
			return nil, err
		}
		shared, err = newSource(in)
		if err != nil {
			return nil, err
		}
	}
	out := make([]job, count)
	for i := range out {
		j := shared
		if j == nil {
			in, err := tsp.Generate(tsp.GenSpec{
				Name: fmt.Sprintf("upload-%d-%d", stream, i), N: w.uploadN, Type: tsp.Euc2D,
				Seed: derive(seed, streamUpload, stream<<32|i), Width: 10000,
			})
			if err != nil {
				return nil, err
			}
			if j, err = newSource(in); err != nil {
				return nil, err
			}
		}
		out[i] = *j
		out[i].seed = derive(seed, stream, i)
		req := submitRequest{
			Benchmark: w.bench, Iterations: w.iters, Backend: w.backend,
			Params:      submitParams{Ants: w.ants, Seed: out[i].seed},
			LocalSearch: w.twoOpt, IncludeTour: true,
		}
		if w.bench == "" {
			req.TSPLIB = j.text
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out[i].body = body
	}
	return out, nil
}

func newSource(in *tsp.Instance) (*job, error) {
	var buf bytes.Buffer
	if err := tsp.Write(&buf, in); err != nil {
		return nil, err
	}
	c, err := newInstance(in)
	if err != nil {
		return nil, err
	}
	return &job{inst: c, text: buf.String()}, nil
}
