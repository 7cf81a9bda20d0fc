package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLoadRunSelfHosted runs a small self-hosted load: every request must
// complete, the drain wave must drop nothing, and the JSON report must
// carry coherent percentiles.
func TestLoadRunSelfHosted(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_service.json")
	var buf bytes.Buffer
	err := run([]string{
		"-clients", "4", "-requests", "12", "-iterations", "3",
		"-workers", "2", "-sse-every", "3", "-drainwave", "4",
		"-json", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, b)
	}
	if rep.Completed != 12 || rep.Failed != 0 {
		t.Errorf("completed=%d failed=%d, want 12/0", rep.Completed, rep.Failed)
	}
	if rep.Clients != 4 || rep.Requests != 12 || rep.NumCPU < 1 || rep.GoMaxProcs < 1 {
		t.Errorf("report shape %+v", rep)
	}
	if rep.Streamed == 0 {
		t.Error("no requests took the SSE path despite -sse-every 3")
	}
	l := rep.JobLatency
	if l.P50 <= 0 || l.P95 < l.P50 || l.P99 < l.P95 || l.Max < l.P99 {
		t.Errorf("incoherent percentiles: %+v", l)
	}
	if rep.Drain == nil {
		t.Fatal("drain summary missing")
	}
	if rep.Drain.InFlight != 4 || rep.Drain.Completed != 4 || rep.Drain.Dropped != 0 {
		t.Errorf("drain summary %+v, want 4 in-flight all completed", rep.Drain)
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if err := run([]string{"-clients", "0"}, &buf); err == nil {
		t.Fatal("run accepted zero clients")
	}
}

// TestPacerSchedule pins the coordinated-omission correction: intended
// send times are fixed multiples of 1/rate from the schedule start, and a
// request that goes out late (every client busy) measures its corrected
// latency from the time it was due, not the time it finally left.
func TestPacerSchedule(t *testing.T) {
	start := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	p := newPacer(start, 50) // 20ms interval
	if got := p.intended(0); !got.Equal(start) {
		t.Errorf("intended(0) = %v, want schedule start", got)
	}
	if got, want := p.intended(5), start.Add(100*time.Millisecond); !got.Equal(want) {
		t.Errorf("intended(5) = %v, want %v", got, want)
	}
	// A backlog must not shift later due times: request 7 is due at
	// start+140ms no matter when requests 0..6 actually went out.
	if got, want := p.intended(7), start.Add(140*time.Millisecond); !got.Equal(want) {
		t.Errorf("intended(7) = %v, want %v", got, want)
	}

	// The corrected sample for a request due at t=140ms that only got sent
	// at t=500ms and finished at t=530ms is 390ms — the service latency
	// alone (30ms) is the coordinated-omission-blind legacy value.
	finished := start.Add(530 * time.Millisecond)
	corrected := finished.Sub(p.intended(7))
	if corrected != 390*time.Millisecond {
		t.Errorf("corrected latency = %v, want 390ms", corrected)
	}
}

// TestLoadRunPaced runs a small fixed-rate load and checks the corrected
// column appears and can only be slower than the legacy one.
func TestLoadRunPaced(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_service.json")
	var buf bytes.Buffer
	err := run([]string{
		"-clients", "4", "-requests", "12", "-iterations", "3",
		"-workers", "2", "-drainwave", "0", "-rate", "200",
		"-json", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, b)
	}
	if rep.ScheduledRPS != 200 {
		t.Errorf("scheduled_rps = %v, want 200", rep.ScheduledRPS)
	}
	if rep.CorrectedJobLatency == nil {
		t.Fatal("corrected job latency missing from paced run")
	}
	if rep.CorrectedJobLatency.Max < rep.JobLatency.Max {
		t.Errorf("corrected max %.6fs is below legacy max %.6fs — correction can only add queueing delay",
			rep.CorrectedJobLatency.Max, rep.JobLatency.Max)
	}
}

func TestSummarise(t *testing.T) {
	s := summarise([]float64{3, 1, 2, 4})
	if s.P50 != 2 || s.Max != 4 || s.Mean != 2.5 {
		t.Errorf("summarise = %+v", s)
	}
	if z := summarise(nil); z.P50 != 0 || z.Max != 0 {
		t.Errorf("empty summarise = %+v", z)
	}
}
