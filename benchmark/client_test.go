package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a request "takes time".
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time        { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.now = f.now.Add(d) }

// A request that overruns its slot delays the ones behind it; open-loop
// latency is counted from the due time, so the delay shows up in every
// queued request, and the generator's own lateness is reported separately.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	service := []time.Duration{1 * ms, 35 * ms, 1 * ms, 1 * ms, 1 * ms}
	samples, acked := runOpenLoop(clk, start, start.Add(50*ms), 10*ms, func(i int) bool {
		clk.now = clk.now.Add(service[i])
		return i != 3 // request 3 is refused
	})
	want := []openSample{
		{at: 0, lat: 1 * ms, late: 0},
		{at: 10 * ms, lat: 35 * ms, late: 0},
		{at: 20 * ms, lat: 26 * ms, late: 25 * ms},
		{at: 30 * ms, lat: 17 * ms, late: 16 * ms},
		{at: 40 * ms, lat: 8 * ms, late: 7 * ms},
	}
	if len(samples) != len(want) {
		t.Fatalf("sent %d requests, want %d (none may be skipped)", len(samples), len(want))
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Errorf("request %d: %+v, want %+v", i, samples[i], want[i])
		}
	}
	if len(acked) != 4 || acked[3] != 4 {
		t.Errorf("acked = %v, want [0 1 2 4]", acked)
	}
}

func TestOpenLoopOnTime(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{now: start.Add(-time.Second)} // started early: sleeps until the first due time
	samples, _ := runOpenLoop(clk, start, start.Add(time.Second), 100*time.Millisecond, func(int) bool {
		clk.now = clk.now.Add(time.Millisecond)
		return true
	})
	if len(samples) != 10 {
		t.Fatalf("sent %d, want 10", len(samples))
	}
	for i, s := range samples {
		if s.late != 0 || s.lat != time.Millisecond {
			t.Errorf("request %d: %+v, want on time with 1ms latency", i, s)
		}
	}
}

func TestParseEstimate(t *testing.T) {
	body := []byte(`{"value":1234.5,"variance":2e-05,"ci_low":-1.5e+03,"ci_high":4000,"elapsed_us":12}` + "\n")
	got, ok := parseEstimate(body)
	if want := (estimate{1234.5, -1500, 4000}); !ok || got != want {
		t.Errorf("parseEstimate = %+v, %v; want %+v", got, ok, want)
	}
	if _, ok := parseEstimate([]byte(`{"error":"boom"}`)); ok {
		t.Error("an error body parsed as an estimate")
	}
	if _, ok := parseEstimate([]byte(`{"value":abc,"ci_low":1,"ci_high":2}`)); ok {
		t.Error("a malformed number parsed as an estimate")
	}
}

func TestParseGroups(t *testing.T) {
	rows, ok := parseGroups([]byte(`{"groups":[{"key":[1997,12],"labels":["1997","12"],"value":5,"variance":1,"ci_low":4,"ci_high":6}],"elapsed_us":3}`))
	if !ok || len(rows) != 1 || keyString(rows[0].Key) != "1997|12|" || rows[0].CIHigh != 6 {
		t.Errorf("parseGroups = %+v, %v", rows, ok)
	}
	// A stream that failed midway closes the object with an error member.
	if _, ok := parseGroups([]byte(`{"groups":[],"error":"deadline"}`)); ok {
		t.Error("a failed stream parsed as an answer")
	}
}
