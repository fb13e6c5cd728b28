package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONIsTheDescription(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-describe"}, &out, &errb); code != 0 {
		t.Fatalf("-describe exited %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, out.Bytes()) {
		t.Error("BENCHMARK.json is not what -describe prints; regenerate it with: go run ./benchmark -describe > BENCHMARK.json")
	}
	b := loadBenchmarkJSON(t)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 || len(b.Workloads) > 8 {
		t.Errorf("%d layer metrics, %d end-to-end metrics, %d workloads exceed the contract", len(b.PerLayer), len(b.EndToEnd), len(b.Workloads))
	}
}

// Every run emits exactly the metrics BENCHMARK.json names for its mode,
// each once, with its unit, and nothing else.
func TestQuickRunsEmitTheContract(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	units := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range b.EndToEnd {
		units[0][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[1][m.Name] = m.Unit
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}

	out := t.TempDir()
	for _, w := range names {
		for trace, want := range units {
			var stdout, stderr bytes.Buffer
			args := []string{"-quick", "-workload", w, "-seed", "5", "-seconds", "0.2", "-trace", []string{"0", "1"}[trace], "-out", out}
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v exited %d: %s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%v: correct %v attempted %d failed %d", args, res.Correct, res.Attempted, res.Failed)
			}
			printed := map[string]int{}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
					printed[f[1]]++
					if f[3] != want[f[1]] {
						t.Errorf("%v: %s printed with unit %q, want %q", args, f[1], f[3], want[f[1]])
					}
				}
			}
			for name, unit := range want {
				if !nameRE.MatchString(name) || len(name) > 64 {
					t.Errorf("metric name %q is outside the contract", name)
				}
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%v: result line has %s = %+v, want unit %q", args, name, got, unit)
				}
				if printed[name] != 1 {
					t.Errorf("%v: %s printed %d times", args, name, printed[name])
				}
			}
			if len(res.Metrics) != len(want) || len(printed) != len(want) {
				t.Errorf("%v: %d metrics in the result, %d printed, contract names %d", args, len(res.Metrics), len(printed), len(want))
			}
			if trace == 1 {
				checkTraceFile(t, filepath.Join(out, "trace-"+w+".json"), w)
			}
		}
	}
}

// checkTraceFile checks the structure the README promises: per request
// one handler span and one replay tree whose self times add up to the
// replay root.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	tf, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 {
		t.Fatalf("%s: workload %q, %d spans", path, tf.Workload, len(tf.Spans))
	}
	self := selfTimes(tf.Spans)
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	sums, roots, handlers := map[int]int64{}, map[int]span{}, 0
	for _, s := range tf.Spans {
		switch {
		case s.Name == "serve.handler":
			handlers++
			continue
		case s.Parent == 0:
			roots[s.Request] = s
		default:
			if p := byID[s.Parent]; p.Request != s.Request {
				t.Fatalf("%s: span %d of request %d hangs under request %d", path, s.ID, s.Request, p.Request)
			}
		}
		sums[s.Request] += self[s.ID]
	}
	if handlers != len(roots) {
		t.Errorf("%s: %d handler spans for %d replayed requests", path, handlers, len(roots))
	}
	for req, root := range roots {
		if diff := sums[req] - root.dur(); diff > root.dur()/50 || -diff > root.dur()/50 {
			t.Errorf("%s: request %d self times sum to %d ns, its span is %d ns", path, req, sums[req], root.dur())
		}
	}
}

// A workload whose traffic loses its designed shape must fail, not
// report another workload's numbers under its name.
func TestShapeGuardFailsTheRun(t *testing.T) {
	saved := append([]workload(nil), workloads...)
	defer func() { workloads = saved }()
	workloads = append([]workload(nil), saved...)
	for i := range workloads {
		if workloads[i].name == "disk_hit" {
			workloads[i].disk = false
		}
	}
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-quick", "-workload", "disk_hit", "-seconds", "0.2", "-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "shape guard") {
		t.Errorf("disk_hit without a cache dir exited %d: %s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Error("a failed run printed a result line")
	}
}
