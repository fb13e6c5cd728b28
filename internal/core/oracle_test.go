package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/parser"
	"purec/internal/purity"
	"purec/internal/sema"
)

// TestPuritySoundnessOracle is the dynamic side-effect oracle of the
// determinism contract (ARCHITECTURE.md): for generated programs, whenever the static purity checker
// ACCEPTS a pure-marked function, actually executing that function must
// not change any observable global state. (The converse does not hold —
// the checker is deliberately conservative.)
func TestPuritySoundnessOracle(t *testing.T) {
	f := func(seed uint32) bool {
		src := genOracleProgram(seed)
		file, err := parser.Parse("o.c", src)
		if err != nil {
			return true // generator produced an invalid program: skip
		}
		info, err := sema.Check(file)
		if err != nil {
			return true
		}
		pres := purity.Check(info)
		if pres.Err() != nil {
			return true // rejected: nothing to verify dynamically
		}
		if !pres.PureFuncs["probe"] {
			return true
		}
		// probe was verified pure: executing main (which calls probe)
		// must leave the globals exactly as direct initialization would.
		in, err := interp.New(info, nil)
		if err != nil {
			return true
		}
		before := observe(info, interpGlobals{in}, 0, "", "")
		if _, err := in.Call("probe", interp.IntV(3)); err != nil {
			return true // runtime fault is fine; side-effects are not
		}
		after := observe(info, interpGlobals{in}, 0, "", "")
		if before != after {
			t.Logf("purity checker accepted a function with side-effects!\nsource:\n%s\nbefore: %s\nafter:  %s",
				src, before, after)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// genOracleProgram builds a small program with a pure-marked probe
// function whose body is drawn from a mix of genuinely pure and
// side-effecting snippets. The checker must accept only the pure ones;
// the oracle verifies the accepted ones dynamically.
func genOracleProgram(seed uint32) string {
	s := seed
	pick := func(list []string) string {
		s = s*1664525 + 1013904223
		return list[int(s>>16)%len(list)]
	}
	bodies := []string{
		// pure bodies
		"int a = x + 1; return a * 2;",
		"int r = 0; for (int i = 0; i < x; i++) r += i; return r;",
		"int* p = (int*)malloc(4 * sizeof(int)); p[0] = x; int r = p[0]; free(p); return r;",
		"int buf[4]; buf[0] = x; buf[1] = buf[0] * 2; return buf[1];",
		"return garr[0] + x;", // reading globals is allowed
		"pure int* v = (pure int*)garr; return v[1] + x;",
		"return probe2(x) + 1;",
		// impure bodies — must be rejected statically
		"garr[0] = x; return x;",
		"garr[1] = garr[1] + 1; return x;",
		"gscalar = x; return x;",
		"gscalar++; return gscalar;",
		"int* p = garr; p[2] = x; return x;",
		"leak(); return x;",
	}
	body := pick(bodies)
	return fmt.Sprintf(`
int garr[4];
int gscalar;

void leak(void) { gscalar = 99; }

pure int probe2(int y) { return y * y; }

pure int probe(int x) {
    %s
}

int main(void) {
    return probe(3);
}
`, body)
}

// aliasRepros are the committed first cases of the aliasing
// differential: each miscompiled before the kernel families shared one
// matcher. The first three cache a memory-cell accumulator that one of
// the kernel's own operands reads (x[3] += x[k] printed 40 instead of
// 46, the ELL form 85 instead of 202, d[2] += d[k]*d[k] 207 instead of
// 262); the fourth is the ELL kernel dropping the float32 rounding of
// a product that goes through a float helper.
var aliasRepros = []struct{ name, src string }{
	{"sum-into-own-operand", `
float x[8];
int main(void) {
    for (int i = 0; i < 8; i++) x[i] = (float)(i + 1);
    for (int k = 0; k < 8; k++) x[3] += x[k];
    printf("%g\n", x[3]);
    return 0;
}`},
	{"ell-gathers-the-sink", `
float y[8]; float v[8]; int ja[8];
int main(void) {
    for (int i = 0; i < 8; i++) { y[i] = (float)(i + 1); v[i] = 0.5f * (float)(i + 1); ja[i] = (i * 3 + 1) % 8; }
    for (int k = 0; k < 8; k++) y[0] += v[k] * y[ja[k]];
    printf("%g\n", y[0]);
    return 0;
}`},
	{"dot-into-own-operand", `
float d[8];
int main(void) {
    for (int i = 0; i < 8; i++) d[i] = (float)(i + 1);
    for (int k = 0; k < 8; k++) d[2] += d[k] * d[k];
    printf("%g\n", d[2]);
    return 0;
}`},
	{"ell-rounded-product", `
pure float mult(float a, float b) { return a * b; }
float v[4]; float x[4]; int ja[4];
int main(void) {
    for (int i = 0; i < 4; i++) { v[i] = 1.18844903f; x[i] = 3.57744694f; ja[i] = 3 - i; }
    float res = 9.74546146f;
    for (int k = 0; k < 1; k++) res += mult(v[k], x[ja[k]]);
    printf("%g\n", res);
    return 0;
}`},
}

// genAliasProgram grows genOracleProgram's idea into fused-kernel
// territory: one single-statement loop drawn from the five kernel
// families (map, gather map, reduce, histogram update, min/max) whose
// sink and operands come from a small pool of arrays with deliberate
// overlap — the same array as sink and operand, pointer windows
// p = a + c into it, index arrays whose contents hit the sink cell or
// that are updated through themselves — and leaf pure calls, scalar and
// pointer-parameter, that inline into the statement. Every subscript
// stays in
// bounds by construction (index contents < 8 before the loop, at most
// 8 increments, 16-cell arrays), so the programs never trap and every
// build must print exactly what the interpreter prints.
func genAliasProgram(seed uint32) string {
	s := seed*2654435761 + 12345
	pick := func(list ...string) string {
		s = s*1664525 + 1013904223
		return list[int(s>>16)%len(list)]
	}
	load := func() string {
		return pick("a[k]", "a[k + 1]", "a[k + 2]", "b[k]", "p[k]", "p[k + 1]", "q[k]", "a[2 * k]")
	}
	gather := func() string {
		return pick("a[ia[k]]", "p[ib[k]]", "b[ia[k]]", "a[ip[k]]", "q[ib[k + 1]]", "a[ia[k] < 2 ? 2 : ia[k]]")
	}
	store := func() string { return pick("a[k]", "a[k + 1]", "p[k]", "b[k]", "q[k + 1]", "a[2 * k + 1]") }
	cell := func() string { return pick("a[3]", "a[0]", "p[1]", "b[2]", "q[0]", "a[7]", "acc") }
	// Leaf pure calls, scalar and pointer-parameter: they inline into
	// the statement before it is matched. The pointer leaves read c,
	// which no loop writes — the front end refuses a nest that assigns
	// an array it also passes to a pure function (Listing 5).
	leaf := func() string {
		return pick(
			"mult("+load()+", "+load()+")",
			"at((pure float*)c, k)",
			"at((pure float*)c, k + 1)",
			"nb((pure float*)c, k)",
			"mult(at((pure float*)c, k), "+load()+")",
		)
	}
	var stmt string
	switch pick("map", "gather", "reduce", "reduce", "hist", "minmax", "leaf") {
	case "map":
		stmt = pick(
			store()+" = "+load()+" "+pick("+", "-", "*")+" "+load()+";",
			store()+" = 0.5f * "+load()+" + "+load()+";",
			store()+" "+pick("+=", "-=", "*=")+" "+load()+";",
			store()+" = 0.25f * ("+load()+" + "+load()+" + "+load()+");",
		)
	case "leaf":
		stmt = pick(
			store()+" = "+leaf()+";",
			store()+" = "+leaf()+" "+pick("+", "*")+" "+load()+";",
			store()+" "+pick("+=", "*=")+" "+leaf()+";",
			cell()+" += "+leaf()+";",
		)
	case "gather":
		stmt = pick(
			store()+" = "+gather()+";",
			"a[0] = "+gather()+";",
			"ia[k] = ib[ia[k]];",
			"ip[k] = ia[ib[k]];",
			"ia[k + 1] = ia[ia[k]];",
		)
	case "reduce":
		stmt = cell() + " += " + pick(
			load(),
			load()+" * "+load(),
			load()+" * "+gather(),
			gather()+" * "+load(),
			"mult("+load()+", "+load()+")",
			"mult("+load()+", "+gather()+")",
			leaf(),
		) + ";"
	case "hist":
		stmt = pick(
			"a[ia[k]] += 0.5f;",
			"p[ib[k]] -= 0.25f;",
			"b[ip[k]] *= 1.5f;",
			"ia[ib[k]] ^= 1;",
			"ia[ia[k]]++;",
			"ib[ip[k]] += 2;",
			"ip[ia[k]] |= 1;",
		)
	case "minmax":
		ld := load()
		stmt = pick(
			"if ("+ld+" < m) m = "+ld+";",
			"m = "+ld+" > m ? "+ld+" : m;",
			"if (ia[k] > mi) mi = ia[k];",
			"mi = ip[k] < mi ? ip[k] : mi;",
		)
	}
	return fmt.Sprintf(`
pure float mult(float x, float y) { return x * y; }
pure float at(pure float* v, int i) { return v[i]; }
pure float nb(pure float* v, int i) { return 0.5f * (v[i] + v[i + 1]); }
float a[16]; float b[16]; float c[16];
int ia[16]; int ib[16];
int main(void) {
    for (int i = 0; i < 16; i++) {
        c[i] = 0.75f + 0.375f * (float)i;
        a[i] = 0.5f * (float)(i + 1);
        b[i] = 1.25f - 0.125f * (float)i;
        ia[i] = (i * 3 + 1) %% 8;
        ib[i] = (i * 5 + 3) %% 8;
    }
    float* p = a + %s;
    float* q = %s + %s;
    int* ip = ia + %s;
    float acc = 1.5f;
    float m = 4.0f;
    int mi = 3;
    for (int k = 0; k < 7; k++) %s
    for (int i = 0; i < 16; i++) printf("%%g %%g %%d %%d\n", a[i], b[i], ia[i], ib[i]);
    printf("%%g %%g %%d\n", acc, m, mi);
    return 0;
}`, pick("1", "2", "3"), pick("a", "b"), pick("0", "2", "4"), pick("0", "1", "3"), stmt)
}

// runOracle executes main in the interp oracle and returns everything
// observable: stdout, the return value and the trap text.
func runOracle(t *testing.T, src string) (out string, ret int64, trap string) {
	t.Helper()
	art, err := Front(src, Config{})
	if err != nil {
		t.Fatalf("front: %v\n%s", err, src)
	}
	var buf strings.Builder
	in, err := interp.New(art.Info, &buf)
	if err != nil {
		t.Fatal(err)
	}
	ret, err = in.RunMain()
	if err != nil {
		trap = strings.TrimPrefix(err.Error(), "interp ")
	}
	return buf.String(), ret, trap
}

// TestAliasingDifferential holds every fused-kernel configuration to
// the interpreter on the committed reproductions and on generated
// aliasing loops: {gcc, icc+Vectorize}, equal
// stdout, return value and trap text. Fixed seeds; run under -race in
// CI.
func TestAliasingDifferential(t *testing.T) {
	cases := aliasRepros
	for seed := uint32(0); seed < 160; seed++ {
		cases = append(cases, struct{ name, src string }{fmt.Sprintf("seed-%d", seed), genAliasProgram(seed)})
	}
	fusedSomewhere, ptrLeafFused := 0, 0
	for _, c := range cases {
		wantOut, wantRet, wantTrap := runOracle(t, c.src)
		for _, icc := range []bool{false, true} {
			cfg := Config{NoCache: true}
			if icc {
				cfg.Backend, cfg.Vectorize = comp.BackendICC, true
			}
			prog, _, _, err := BuildProgram(c.src, cfg)
			if err != nil {
				t.Fatalf("%s: %v\n%s", c.name, err, c.src)
			}
			if icc && prog.FusedKernels() > 0 {
				fusedSomewhere++
				if strings.Contains(c.src, "((pure float*)c") && prog.InlinedCalls() > 0 {
					ptrLeafFused++
				}
			}
			var buf strings.Builder
			proc, err := prog.NewProcess(comp.ProcOptions{Stdout: &buf})
			if err != nil {
				t.Fatal(err)
			}
			ret, err := proc.RunMain()
			trap := ""
			if err != nil {
				trap = err.Error()
			}
			if buf.String() != wantOut || ret != wantRet || trap != wantTrap {
				t.Errorf("%s: icc+vec=%v (%d fused kernels) differs from the interpreter\n%s\ngot  ret=%d trap=%q\n%s\nwant ret=%d trap=%q\n%s",
					c.name, icc, prog.FusedKernels(), c.src, ret, trap, buf.String(), wantRet, wantTrap, wantOut)
			}
		}
	}
	// The generator is only worth its time while its loops actually fuse.
	if fusedSomewhere < len(cases)*3/4 {
		t.Errorf("only %d of %d programs fused a kernel", fusedSomewhere, len(cases))
	}
	// ... and its pointer-parameter leaves while they inline into them.
	if ptrLeafFused < 10 {
		t.Errorf("only %d programs fused a loop over an inlined pointer-parameter leaf", ptrLeafFused)
	}
}
