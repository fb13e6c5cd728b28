package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"purec/internal/apps"
)

// buildPurecc compiles the command into a scratch directory.
func buildPurecc(t *testing.T) (dir, bin string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "purecc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}

// purecc -schedule bogus used to print the program's output and exit 0:
// the clause was emitted, ignored by the compile step and run static.
func TestScheduleFlagValidated(t *testing.T) {
	dir, bin := buildPurecc(t)
	src := filepath.Join(dir, "sum.c")
	prog := "int a[64];\nint main(void) {\n  int s = 0;\n  for (int i = 0; i < 64; i++) a[i] = i;\n" +
		"  for (int i = 0; i < 64; i++) s += a[i];\n  printf(\"%d\\n\", s);\n  return 0;\n}\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "-schedule", "bogus", "-cores", "2", src).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("-schedule bogus: err %v, want exit status 1", err)
	}
	if got := string(out); !strings.Contains(got, `unknown schedule "bogus"`) || strings.Contains(got, "2016") {
		t.Errorf("-schedule bogus printed %q", got)
	}

	for _, sched := range []string{"", "static", "dynamic,1", "guided,4"} {
		out, err := exec.Command(bin, "-schedule", sched, "-cores", "2", src).CombinedOutput()
		if err != nil || string(out) != "2016\n" {
			t.Errorf("-schedule %q: %v, output %q", sched, err, out)
		}
	}
}

// The report answers "why is this loop a kernel now": the heat stencil
// call and reduce-sum's square(...) are one inlined call site each, and
// heat's stencil loop counts as a fused kernel beside the copy loop.
// Every build runs on the tape, so the report carries the "tape:" size
// line; the retired -backend closure is an unknown backend.
func TestReportInlinedCalls(t *testing.T) {
	dir, bin := buildPurecc(t)
	for _, c := range []struct {
		name, src string
		defs      map[string]string
		want      []string
	}{
		{"heat", apps.HeatSrc, apps.HeatDefines(16, 2), []string{"inlined calls: 1\n", "fused kernels: 2\n"}},
		{"reduce-sum", apps.ReduceSumSrc, apps.ReduceDefines(64), []string{"inlined calls: 1\n"}},
	} {
		path := filepath.Join(dir, c.name+".c")
		if err := os.WriteFile(path, []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		args := []string{"-emit", "report"}
		for k, v := range c.defs {
			args = append(args, "-D", k+"="+v)
		}
		out, err := exec.Command(bin, append(args, path)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, out)
		}
		for _, line := range append(c.want, "\ntape: ") {
			if !strings.Contains(string(out), line) {
				t.Errorf("%s: report lacks %q:\n%s", c.name, line, out)
			}
		}
		out, err = exec.Command(bin, append(args, "-backend", "closure", path)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), `unknown backend "closure" (want gcc or icc)`) {
			t.Errorf("%s -backend closure: err %v, output\n%s", c.name, err, out)
		}
	}
}

// -analyze prints the front end's findings without compiling: the
// program, which a plain run compiles and runs (printing "ran"), prints
// nothing of its own under -analyze, and a definite out-of-bounds
// access still exits 1.
func TestAnalyzeSkipsTheCompileStep(t *testing.T) {
	dir, bin := buildPurecc(t)
	for _, c := range []struct {
		name, src string
		exit      int
		want      []string
	}{
		{"oob", "int a[4];\nint main(void) {\n  int u;\n  printf(\"ran\\n\");\n  a[5] = 1;\n  return 0;\n}\n", 1, []string{
			"oob.c:3:7: unused variable: u",
			"oob.c:5:3: definite out-of-bounds: a[5] always out of bounds",
			"purecc: program contains a definite out-of-bounds access",
		}},
		{"unused", "int main(void) {\n  int u;\n  printf(\"ran\\n\");\n  return 0;\n}\n", 0, []string{
			"unused.c:2:7: unused variable: u",
		}},
	} {
		path := filepath.Join(dir, c.name+".c")
		if err := os.WriteFile(path, []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		if out, _ := exec.Command(bin, path).CombinedOutput(); !strings.Contains(string(out), "ran\n") {
			t.Fatalf("%s: a plain run did not run the program:\n%s", c.name, out)
		}
		out, err := exec.Command(bin, "-analyze", path).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != c.exit {
			t.Errorf("%s: -analyze exit %d, want %d:\n%s", c.name, code, c.exit, out)
		}
		for _, line := range c.want {
			if !strings.Contains(string(out), line) {
				t.Errorf("%s: -analyze output lacks %q:\n%s", c.name, line, out)
			}
		}
		if strings.Contains(string(out), "ran\n") {
			t.Errorf("%s: -analyze ran the program:\n%s", c.name, out)
		}
	}
}
