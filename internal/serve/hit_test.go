package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// unitsSource renders a program in the style of the benchmark's
// generated corpus: n independent units, each with its own global
// arrays and loops, of which main runs only the first. It is long to
// read, hash and lay out, and short to run.
func unitsSource(n int) string {
	var b strings.Builder
	b.WriteString("#define N 64\n")
	for u := 0; u < n; u++ {
		fmt.Fprintf(&b, `float xa%[1]d[N], ya%[1]d[N];
int ia%[1]d[N];
int u%[1]d(void) {
    for (int i = 0; i < N; i++) {
        xa%[1]d[i] = (float)((i * %[2]d) %% 17) * 0.25f;
        ia%[1]d[i] = (i + %[1]d) %% N;
    }
    for (int i = 0; i < N; i++)
        ya%[1]d[i] = xa%[1]d[ia%[1]d[i]] * 2.0f;
    int s = 0;
    for (int i = 0; i < N; i++)
        s += (int)ya%[1]d[i];
    return s;
}
`, u, u%7+1)
	}
	b.WriteString("int main(void) {\n    printf(\"%d\\n\", u0());\n    return 0;\n}\n")
	return b.String()
}

// hitHandler returns the handler of a fresh Server and a /run request
// maker for src, after one request that compiled src and checked its
// output, so every later request is a memory hit on a pooled Process.
func hitHandler(tb testing.TB, src string) (http.Handler, func() *http.Request) {
	tb.Helper()
	s, err := New(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(RunRequest{Source: src})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	req := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req())
	if w.Code != http.StatusOK || w.Body.String() != "228\n" {
		tb.Fatalf("first request: %d %q", w.Code, w.Body.String())
	}
	return h, req
}

// BenchmarkServeMemoryHit is one /run of a ~24 KB program that is
// already compiled and pooled, from the request body to the streamed
// output: decode, key, cache hit, pool Get/Reset, run.
func BenchmarkServeMemoryHit(b *testing.B) {
	src := unitsSource(72)
	h, req := hitHandler(b, src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req())
		if w.Code != http.StatusOK || w.Header().Get("X-Purecd-Build") != "memory" {
			b.Fatalf("request %d: %d %s", i, w.Code, w.Header().Get("X-Purecd-Build"))
		}
	}
}
