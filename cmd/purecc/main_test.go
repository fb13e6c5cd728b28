package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// purecc -schedule bogus used to print the program's output and exit 0:
// the clause was emitted, ignored by the compile step and run static.
func TestScheduleFlagValidated(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "purecc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
