package scop

import (
	"strings"
	"testing"

	"purec/internal/token"
)

// findNest returns the SCoP whose outer loop iterates the given
// variable, for sources with several nests.
func findNestByIter(res *Result, iter string) *SCoP {
	for _, sc := range res.SCoPs {
		if len(sc.Loops) > 0 && sc.Loops[0].Iter == iter {
			return sc
		}
	}
	return nil
}

func TestArrayReductionRecognized(t *testing.T) {
	cases := []struct {
		name   string
		update string
		op     token.Kind
	}{
		{"increment", "hist[data[i]]++;", token.ADD},
		{"decrement", "hist[data[i]]--;", token.ADD},
		{"pre_increment", "++hist[data[i]];", token.ADD},
		{"compound_add", "hist[data[i]] += 2;", token.ADD},
		{"compound_mul", "hist[data[i]] *= 3;", token.MUL},
		{"compound_and", "hist[data[i]] &= 6;", token.AND},
		{"compound_or", "hist[data[i]] |= 4;", token.OR},
		{"compound_xor", "hist[data[i]] ^= 5;", token.XOR},
	}
	for _, c := range cases {
		src := `
int data[100];
int main(void) {
    int hist[16];
    for (int i = 0; i < 100; i++)
        ` + c.update + `
    return hist[0];
}
`
		res, _ := detect(t, src)
		sc := findNestByIter(res, "i")
		if sc == nil {
			t.Fatalf("%s: nest not detected (rejections: %v)", c.name, res.Rejections)
		}
		if len(sc.Reductions) != 1 {
			t.Fatalf("%s: reductions = %+v, want one", c.name, sc.Reductions)
		}
		r := sc.Reductions[0]
		if !r.IsArray || r.Var != "hist" || r.Op != c.op {
			t.Errorf("%s: got %+v, want array hist op %v", c.name, r, c.op)
		}
		if spec := r.Clause().Spec(); !strings.HasSuffix(spec, ":hist[]") {
			t.Errorf("%s: clause spec = %q, want op:hist[]", c.name, spec)
		}
		// The star accesses of hist must be reduction-tagged so the
		// dependence analysis keeps the loop parallel.
		for _, st := range sc.Nest.Stmts {
			for _, a := range st.Accesses() {
				if a.Array == "hist" && !a.Reduction {
					t.Errorf("%s: access %v of hist is not reduction-tagged", c.name, a)
				}
			}
		}
	}
}

func TestArrayReductionMinMaxRecognized(t *testing.T) {
	cases := []struct {
		name   string
		update string
		op     token.Kind
	}{
		{"min_if", "if (data[i] < lo[bin[i]]) lo[bin[i]] = data[i];", token.LSS},
		{"max_if", "if (data[i] > lo[bin[i]]) lo[bin[i]] = data[i];", token.GTR},
		{"min_ternary", "lo[bin[i]] = data[i] < lo[bin[i]] ? data[i] : lo[bin[i]];", token.LSS},
	}
	for _, c := range cases {
		src := `
int data[100], bin[100];
int main(void) {
    int lo[8];
    for (int i = 0; i < 100; i++)
        ` + c.update + `
    return lo[0];
}
`
		res, _ := detect(t, src)
		sc := findNestByIter(res, "i")
		if sc == nil {
			t.Fatalf("%s: nest not detected (rejections: %v)", c.name, res.Rejections)
		}
		if len(sc.Reductions) != 1 || !sc.Reductions[0].IsArray ||
			sc.Reductions[0].Var != "lo" || sc.Reductions[0].Op != c.op {
			t.Errorf("%s: reductions = %+v", c.name, sc.Reductions)
		}
	}
}

func TestArrayReductionNotRecognized(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"global_array", `
int data[100];
int hist[16];
int main(void) {
    for (int i = 0; i < 100; i++)
        hist[data[i]]++;
    return 0;
}
`},
		{"read_elsewhere", `
int data[100];
int main(void) {
    int hist[16];
    int last = 0;
    for (int i = 0; i < 100; i++) {
        hist[data[i]]++;
        last = hist[0];
    }
    return last;
}
`},
		{"mixed_ops", `
int data[100];
int main(void) {
    int hist[16];
    for (int i = 0; i < 100; i++) {
        hist[data[i]]++;
        hist[data[i]] *= 2;
    }
    return hist[0];
}
`},
		{"near_miss_plain_assign", `
int a[100], b[100];
int main(void) {
    int hist[16];
    for (int i = 0; i < 100; i++)
        hist[a[i]] = hist[b[i]] + 1;
    return hist[0];
}
`},
		// The compound forms below read the accumulator array beyond
		// the target's own read-modify-write: wrongly recognizing them
		// dissolves a real dependence and miscompiles the nest
		// (workers would read the identity-filled private copy where
		// the serial loop reads the evolving shared array).
		{"compound_reads_other_subscript", `
int a[100], b[100];
int main(void) {
    int hist[16];
    for (int i = 0; i < 100; i++)
        hist[a[i]] += hist[b[i]];
    return hist[0];
}
`},
		{"compound_reads_constant_cell", `
int a[100];
int main(void) {
    int hist[16];
    for (int i = 0; i < 100; i++)
        hist[a[i]] += hist[0];
    return hist[0];
}
`},
		{"subscript_reads_accumulator", `
int main(void) {
    int hist[16];
    for (int i = 0; i < 16; i++)
        hist[hist[i]]++;
    return hist[0];
}
`},
	}
	for _, c := range cases {
		res, _ := detect(t, c.src)
		sc := findNestByIter(res, "i")
		if sc == nil {
			t.Fatalf("%s: nest not detected at all (rejections: %v) — star accesses should keep it a SCoP", c.name, res.Rejections)
		}
		for _, r := range sc.Reductions {
			if r.IsArray {
				t.Errorf("%s: array reduction wrongly recognized: %+v", c.name, r)
			}
		}
	}
}

func TestArrayReductionSubscriptReadsStayAffine(t *testing.T) {
	// The gather subscript's own read (data[i]) must be recorded as an
	// ordinary affine access — it participates in dependence analysis
	// (a write to data elsewhere in the nest must still serialize).
	src := `
int data[100];
int main(void) {
    int hist[16];
    for (int i = 0; i < 100; i++) {
        hist[data[i]]++;
        data[i] = 0;
    }
    return hist[0];
}
`
	res, _ := detect(t, src)
	sc := findNestByIter(res, "i")
	if sc == nil {
		t.Fatalf("nest not detected (rejections: %v)", res.Rejections)
	}
	foundAffineRead := false
	for _, st := range sc.Nest.Stmts {
		for _, a := range st.Reads {
			if a.Array == "data" && !a.Star && len(a.Subs) == 1 {
				foundAffineRead = true
			}
		}
	}
	if !foundAffineRead {
		t.Error("affine read of data[i] not recorded for the gather subscript")
	}
}
