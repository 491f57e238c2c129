package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// TestSmallWorkloadsEmitEveryMetric runs each workload at a reduced size in
// both modes and checks that every named metric is emitted with its unit
// and that the run's own correctness gate passed.
func TestSmallWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for mode, want := range map[int][]metric{0: endToEnd, 1: perLayer} {
			var out bytes.Buffer
			b := &bench{spec: w.small(), opts: options{seed: 3, seconds: 0.01, trace: mode}, out: &out, log: io.Discard}
			res := b.run()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d: %v",
					w.name, mode, res.Correct, res.Failed, res.Attempted, b.bad)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, mode, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %q", w.name, mode, m.name, got, m.unit)
				}
			}
		}
	}
}

// TestPassesRepeat checks that two passes of one seed agree exactly on
// every deterministic count and virtual-time figure, and that the traced
// one records its setup, slice and unit spans.
func TestPassesRepeat(t *testing.T) {
	for _, w := range workloads {
		s := w.small()
		a, err := runPass(s, 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		log := newSpanLog()
		b, err := runPass(s, 7, log)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		names := map[string]int{}
		for _, sp := range log.spans {
			names[sp.Name]++
		}
		if log.spans[1].Name != "setup" || names["slice"] == 0 || len(log.spans) <= names["slice"]+3 {
			t.Errorf("%s: traced pass recorded %d spans, %d of them slices", w.name, len(log.spans), names["slice"])
		}
		if a.digest != b.digest {
			t.Errorf("%s: digests differ: %s vs %s", w.name, a.digest, b.digest)
		}
		if !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: counts differ:\n%v\n%v", w.name, a.counts, b.counts)
		}
		if a.makespan != b.makespan || !reflect.DeepEqual(a.lat, b.lat) {
			t.Errorf("%s: virtual figures differ: makespan %v vs %v", w.name, a.makespan, b.makespan)
		}
		if len(a.lat) == 0 || a.experiments == 0 {
			t.Errorf("%s: no latency samples or experiments", w.name)
		}
	}
}

// TestSerialPathSkipsScheduler pins the property that makes
// serial-campaigns the scheduler's control.
func TestSerialPathSkipsScheduler(t *testing.T) {
	s, _ := findWorkload(serial)
	st, err := runPass(s.small(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.counts["sched.submitted"] != 0 || st.counts["sim.events"] == 0 {
		t.Errorf("serial path: sched.submitted=%v sim.events=%v", st.counts["sched.submitted"], st.counts["sim.events"])
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", fleet, "--trace", "2"},
		{"--workload", fleet, "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metric
// and workload tables the program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(cfg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cfg.Workloads[i].Name != w.name || cfg.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, cfg.Workloads[i], w.name, w.why)
		}
	}
	if len(cfg.EndToEnd) != len(endToEnd) || len(cfg.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(cfg.EndToEnd), len(cfg.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		got := cfg.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, want %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
	for i, m := range perLayer {
		if got := cfg.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer %d: %+v, want %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
}
