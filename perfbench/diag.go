package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Host diagnostics are recorded with every run but gate nothing: they tell
// a noisy host apart from a regression.

// cpuTimes is the aggregate "cpu" line of /proc/stat: total jiffies and
// the steal column.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealRatio is the share of CPU time the hypervisor stole between a and b.
func stealRatio(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

var refSink uint64

// referenceLoop times a fixed integer workload; comparing its start and
// end readings across runs shows host speed drift.
func referenceLoop() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(t0)
}

// commit is the VCS revision the benchmark was built from, when the build
// recorded one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

var goLabel = regexp.MustCompile(`antgpu_build_info\{[^}]*go="([^"]+)"`)

// serverGoVersion reads the Go runtime label of antgpu_build_info.
func serverGoVersion(client *http.Client, base string) string {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return "unknown"
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "unknown"
	}
	if m := goLabel.FindSubmatch(data); m != nil {
		return string(m[1])
	}
	return "unknown"
}

type diagnostics struct {
	numCPU        int
	genProcs      int // generator GOMAXPROCS during the load phase
	serverProcs   int // server pool workers, GOMAXPROCS by default
	goGen, goSrv  string
	commit        string
	steal         float64
	refStart      time.Duration
	refEnd        time.Duration
	listenMedianS float64
}

func (d *diagnostics) print(w io.Writer) {
	fmt.Fprintf(w, "diag num_cpu=%d gomaxprocs_generator=%d gomaxprocs_server=%d go_generator=%s go_server=%s commit=%s\n",
		d.numCPU, d.genProcs, d.serverProcs, d.goGen, d.goSrv, d.commit)
	fmt.Fprintf(w, "diag steal_ratio=%.4f ref_loop_start_ms=%.2f ref_loop_end_ms=%.2f spawn_to_listen_s=%.4f\n",
		d.steal, ms(d.refStart), ms(d.refEnd), d.listenMedianS)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func newDiagnostics() *diagnostics {
	return &diagnostics{numCPU: runtime.NumCPU(), goGen: runtime.Version(), commit: commit()}
}
