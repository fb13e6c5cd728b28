package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/serve"
)

// The application sources are internal/apps programs with a SEED macro
// in their input pattern and a serial integer checksum printf appended:
// the originals print nothing, so an output check over HTTP would be
// vacuous.
//
//go:embed corpus/*.c
var corpusFS embed.FS

// program is one request the benchmark can send: the source and options
// as the daemon sees them, the pre-marshalled body (so the client's
// share of the allocation metric is small and constant), and the
// interp oracle's expected result.
type program struct {
	class  string
	source string
	cores  int

	body []byte
	// cfg is the core.Config serve derives from this request; the
	// traced replay feeds it to the same public functions handleRun
	// calls.
	cfg core.Config
	key core.CacheKey

	wantOut string
	wantRet int64
}

// requestConfig mirrors serve.Server.config for a request that sets only
// source, defines and cores.
func requestConfig(defines map[string]string) core.Config {
	return core.Config{
		FileName:    "request.c",
		Defines:     defines,
		Parallelize: true,
		Backend:     comp.BackendGCC,
		Engine:      comp.EngineClosure,
	}
}

func newProgram(class, source string, defines map[string]string, cores int) *program {
	p := &program{class: class, source: source, cores: cores}
	body, err := json.Marshal(serve.RunRequest{
		Source:  source,
		Defines: defines,
		Options: serve.RunOptions{Cores: cores},
	})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	p.body = body
	p.cfg = requestConfig(defines)
	p.key = core.Key(source, p.cfg)
	return p
}

// appSize is one application class: its corpus file and the -D sizes.
type appSize struct {
	class string
	sizes map[string]string
}

// The six apps_warm classes: the paper's four applications plus the
// array- and scalar-reduction shapes, each sized to tens of
// milliseconds on two cores.
var warmApps = []appSize{
	{"matmul", map[string]string{"N": "128"}},
	{"heat", map[string]string{"N": "128", "STEPS": "12"}},
	{"satellite", map[string]string{"NPIX": "1500", "BANDS": "12", "MAXITERS": "48"}},
	{"lama", map[string]string{"ROWS": "12000", "MAXNNZ": "16"}},
	{"hist", map[string]string{"N": "2000000", "BINS": "4096"}},
	{"reduce", map[string]string{"N": "2000000"}},
}

// The two corpus-backed tiny_hot classes: runs of a few microseconds.
var tinyApps = []appSize{
	{"axpy", map[string]string{"N": "256"}},
	{"hist", map[string]string{"N": "256", "BINS": "16"}},
}

// appProgram instantiates a corpus application for a seed. The seed
// travels as a -D define, so it changes both the program's inputs and
// its cache key.
func appProgram(a appSize, seed int64, cores int) *program {
	src, err := corpusFS.ReadFile("corpus/" + a.class + ".c")
	if err != nil {
		panic(err) // embedded at build time
	}
	// Seven digits for every seed, so the body length does not vary.
	defs := map[string]string{"SEED": strconv.FormatInt(1000000+seed%8999989, 10)}
	for k, v := range a.sizes {
		defs[k] = v
	}
	return newProgram(a.class, string(src), defs, cores)
}

// Generated programs are a sequence of independent units, each one of
// six loop shapes the front end is designed to parallelize, over its own
// small global arrays. N and M are #defines so the preprocessor has
// work to do; N is above and M below transform's minimum parallel trip
// count of 32, so the nest count a program is designed to parallelize
// is known (see unitTemplates.parallel).
const (
	genN = 64
	genM = 8
)

// unitTemplate renders unit u with constants drawn from r.
type unitTemplate struct {
	name string
	// parallel is how many nests of the unit must come out of
	// transform.Parallelize with a parallel level.
	parallel int
	render   func(b *strings.Builder, u int, r *rand.Rand)
}

var unitTemplates = []unitTemplate{
	{"map", 3, func(b *strings.Builder, u int, r *rand.Rand) {
		fmt.Fprintf(b, `float ma%[1]d[N], mb%[1]d[N];
pure float mf%[1]d(float v) { return v * %[2]d.5f + %[3]d.25f; }
int u%[1]d(void) {
    for (int i = 0; i < N; i++)
        ma%[1]d[i] = (float)((i * %[4]d + %[5]d) %% 17) * 0.25f;
    for (int i = 0; i < N; i++)
        mb%[1]d[i] = mf%[1]d(ma%[1]d[i]);
    int s = 0;
    for (int i = 0; i < N; i++)
        s += (int)(mb%[1]d[i] * 4.0f);
    return s;
}
`, u, 1+r.Intn(7), r.Intn(9), 1+r.Intn(12), r.Intn(1000))
	}},
	{"stencil", 3, func(b *strings.Builder, u int, r *rand.Rand) {
		fmt.Fprintf(b, `float sp%[1]d[N][M], sq%[1]d[N][M];
int u%[1]d(void) {
    for (int i = 0; i < N; i++)
        for (int j = 0; j < M; j++) {
            sp%[1]d[i][j] = (float)((i * %[2]d + j * %[3]d + %[4]d) %% 23) * 0.5f;
            sq%[1]d[i][j] = 0.0f;
        }
    for (int i = 1; i < N - 1; i++)
        for (int j = 1; j < M - 1; j++)
            sq%[1]d[i][j] = 0.25f * (sp%[1]d[i - 1][j] + sp%[1]d[i + 1][j] + sp%[1]d[i][j - 1] + sp%[1]d[i][j + 1]);
    int s = 0;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < M; j++)
            s += (int)(sq%[1]d[i][j] * 8.0f);
    return s;
}
`, u, 1+r.Intn(9), 1+r.Intn(9), r.Intn(1000))
	}},
	{"arrayred", 2, func(b *strings.Builder, u int, r *rand.Rand) {
		fmt.Fprintf(b, `int rd%[1]d[N];
int u%[1]d(void) {
    int h[M];
    for (int b = 0; b < M; b++)
        h[b] = 0;
    for (int i = 0; i < N; i++)
        rd%[1]d[i] = (i * %[2]d + %[3]d) %% M;
    for (int i = 0; i < N; i++)
        h[rd%[1]d[i]] += %[4]d;
    int s = 0;
    for (int b = 0; b < M; b++)
        s += h[b] * (b + 1);
    return s;
}
`, u, 1+r.Intn(12), r.Intn(1000), 1+r.Intn(9))
	}},
	{"scalarred", 1, func(b *strings.Builder, u int, r *rand.Rand) {
		fmt.Fprintf(b, `pure int rf%[1]d(int x) { return x * x + %[2]d; }
int u%[1]d(void) {
    int s = 0;
    for (int i = 0; i < N; i++)
        s += rf%[1]d((i + %[3]d) %% 127);
    return s %% 100003;
}
`, u, r.Intn(1000), r.Intn(1000))
	}},
	{"gather", 3, func(b *strings.Builder, u int, r *rand.Rand) {
		fmt.Fprintf(b, `int gi%[1]d[N];
float gx%[1]d[M], gy%[1]d[N];
int u%[1]d(void) {
    for (int i = 0; i < M; i++)
        gx%[1]d[i] = (float)((i + %[2]d) %% 11) * 0.5f;
    for (int i = 0; i < N; i++)
        gi%[1]d[i] = (i * %[3]d + %[4]d) %% M;
    for (int i = 0; i < N; i++)
        gy%[1]d[i] = gx%[1]d[gi%[1]d[i]];
    int s = 0;
    for (int i = 0; i < N; i++)
        s += (int)(gy%[1]d[i] * 2.0f);
    return s;
}
`, u, r.Intn(1000), 1+r.Intn(12), r.Intn(1000))
	}},
	{"ptrloop", 3, func(b *strings.Builder, u int, r *rand.Rand) {
		fmt.Fprintf(b, `float px%[1]d[N + M], py%[1]d[N];
int u%[1]d(void) {
    for (int i = 0; i < N + M; i++)
        px%[1]d[i] = (float)((i + %[2]d) %% 9) * 0.25f;
    float *p = &px%[1]d[%[3]d];
    float *q = &py%[1]d[0];
    for (int i = 0; i < N; i++)
        q[i] = p[i] * 2.0f + %[4]d.0f;
    int s = 0;
    for (int i = 0; i < N; i++)
        s += (int)(py%[1]d[i] * 4.0f);
    return s;
}
`, u, r.Intn(1000), r.Intn(genM+1), r.Intn(9))
	}},
}

// unitMix is the template of each unit of a generated program of the
// small class, by index into unitTemplates: every template once and the
// scalar reduction twice, 16 nests designed to parallelize. The large
// class is four times the mix. A class's programs therefore all have the
// same size and cost — only the order of the units and their constants
// are drawn from the seed — so a class's request times form one sharp
// distribution and per-request counts do not depend on the seed.
var unitMix = []int{0, 1, 2, 3, 3, 4, 5}

const (
	genSmall = 16
	genLarge = 4 * genSmall
)

// genClass names a generated-program class by the number of its nests
// that are designed to parallelize.
func genClass(nests int) string { return "gen" + strconv.Itoa(nests) }

// genSource renders one generated program of nests designed-parallel
// nests (a multiple of genSmall) and returns that count re-derived from
// the templates. main calls the first calls units (all of them when
// calls is 0): a program can be long to read, hash and build yet short
// to run. The salt drawn into main makes two programs with the same
// units still hash to different cache keys.
func genSource(nests, calls int, r *rand.Rand) (src string, parallel int) {
	var mix []int
	for len(mix) < len(unitMix)*nests/genSmall {
		mix = append(mix, unitMix...)
	}
	// The units main calls keep their place, so what a program runs does
	// not depend on the seed; the rest are shuffled.
	rest := mix[calls:]
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	var b strings.Builder
	fmt.Fprintf(&b, "#include <stdio.h>\n#define N %d\n#define M %d\n\n", genN, genM)
	for u, ti := range mix {
		t := unitTemplates[ti]
		parallel += t.parallel
		fmt.Fprintf(&b, "// unit %d: %s\n", u, t.name)
		t.render(&b, u, r)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "int main(void) {\n    int total = %d;\n", 1<<40+r.Int63n(1<<40))
	if calls == 0 {
		calls = len(mix)
	}
	for u := 0; u < calls; u++ {
		fmt.Fprintf(&b, "    total += u%d();\n", u)
	}
	b.WriteString("    printf(\"gen %d\\n\", total);\n    return total % 251;\n}\n")
	// The drawn constants differ in length by a few bytes; a request body
	// a few bytes longer can land in the next allocation size class and
	// move allocation per request by kilobytes. Pad every program of a
	// class to one length.
	if pad := len(mix)*unitBytes - b.Len(); pad >= 4 {
		b.WriteString("// " + strings.Repeat("-", pad-4) + "\n")
	}
	return b.String(), parallel
}

// unitBytes is the source length a generated program is padded to, per
// unit; the longest unit is shorter (TestCorpusIsAFunctionOfTheSeed).
const unitBytes = 384

// genProgram draws the next program of a class from r.
func genProgram(nests, calls int, r *rand.Rand) *program {
	src, _ := genSource(nests, calls, r)
	return newProgram(genClass(nests), src, nil, 1)
}

// genCorpus draws the seeded compile corpus, the large programs spread
// evenly among the small ones so a cycle's load is even.
func genCorpus(seed int64, small, large int) []*program {
	r := rand.New(rand.NewSource(seed))
	total := small + large
	progs := make([]*program, 0, total)
	for i := 0; i < total; i++ {
		nests := genSmall
		if (i+1)*large/total > i*large/total {
			nests = genLarge
		}
		progs = append(progs, genProgram(nests, 0, r))
	}
	return progs
}
