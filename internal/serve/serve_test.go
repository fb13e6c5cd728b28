package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/rt"
)

const serveSrc = `
int *buf;

int main(void) {
    buf = (int*)malloc(64 * sizeof(int));
    int s = 0;
    for (int i = 0; i < 64; i++) {
        buf[i] = i * i;
        s += buf[i];
    }
    printf("sum=%d\n", s);
    return s % 117;
}
`

// post sends a /run request and returns the response.
func post(t *testing.T, ts *httptest.Server, req RunRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestRunColdThenMemoryThenDiskHit walks the three cache layers: the
// first request compiles, the second hits the in-memory cache, and a
// restarted daemon (fresh Server, same cache directory) serves from
// disk — provably without re-entering the pipeline front end. Output
// must be byte-identical across all three.
func TestRunColdThenMemoryThenDiskHit(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{CacheDir: dir})

	req := RunRequest{Source: serveSrc}
	resp := post(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Purecd-Build"); got != "compiled" {
		t.Fatalf("cold X-Purecd-Build = %q, want compiled", got)
	}
	coldOut := readBody(t, resp)

	resp = post(t, ts, req)
	if got := resp.Header.Get("X-Purecd-Build"); got != "memory" {
		t.Fatalf("warm X-Purecd-Build = %q, want memory", got)
	}
	if got := resp.Header.Get("X-Purecd-Pool"); got != "reused" {
		t.Fatalf("warm X-Purecd-Pool = %q, want reused", got)
	}
	if out := readBody(t, resp); out != coldOut {
		t.Fatalf("warm output %q differs from cold %q", out, coldOut)
	}

	// Restart: a new Server over the same directory.
	_, ts2 := newTestServer(t, Options{CacheDir: dir})
	frontBefore := core.FrontRuns()
	resp = post(t, ts2, req)
	if got := resp.Header.Get("X-Purecd-Build"); got != "disk" {
		t.Fatalf("restart X-Purecd-Build = %q, want disk", got)
	}
	if delta := core.FrontRuns() - frontBefore; delta != 0 {
		t.Fatalf("front end ran %d times serving the disk hit, want 0", delta)
	}
	if out := readBody(t, resp); out != coldOut {
		t.Fatalf("restart output %q differs from cold %q", out, coldOut)
	}
}

// TestConcurrentIdenticalRequestsCompileOnce: many concurrent POSTs of
// the same source must singleflight into exactly one front-end run.
func TestConcurrentIdenticalRequestsCompileOnce(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 8, QueueDepth: 64})
	src := `int main(void) { printf("once\n"); return 0; }`

	frontBefore := core.FrontRuns()
	const clients = 12
	var wg sync.WaitGroup
	outs := make([]string, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(RunRequest{Source: src})
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			outs[i], codes[i] = string(data), resp.StatusCode
		}(i)
	}
	wg.Wait()
	if delta := core.FrontRuns() - frontBefore; delta != 1 {
		t.Fatalf("front end ran %d times for %d identical requests, want exactly 1", delta, clients)
	}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK || outs[i] != "once\n" {
			t.Fatalf("client %d: status %d body %q", i, codes[i], outs[i])
		}
	}
}

// TestPoolHeaderIsTheGet: under concurrent requests for one program,
// X-Purecd-Pool says what each request's own Get did, so the headers
// add up to the pool's counters: as many "fresh" as Processes created,
// as many "reused" as resets. Reading the counters around Get let a
// sibling's reuse in between label a fresh Process "reused".
func TestPoolHeaderIsTheGet(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 8, PoolSize: 1})
	// Runs long enough that requests overlap: a drained pool creates
	// Processes while siblings reset theirs.
	src := `int main(void) {
    int s = 0;
    for (int i = 0; i < 20000; i++)
        s = (s * 31 + i) % 1000003;
    printf("%d\n", s);
    return 0;
}`
	const clients, rounds = 8, 25
	var mu sync.Mutex
	headers := map[string]uint64{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body, _ := json.Marshal(RunRequest{Source: src})
				resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				headers[resp.Header.Get("X-Purecd-Pool")]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	if len(s.pools) != 1 {
		t.Fatalf("%d pools, want the one program's", len(s.pools))
	}
	var st comp.PoolStats
	for _, pool := range s.pools {
		st = pool.Stats()
	}
	s.mu.Unlock()
	t.Logf("headers %v, pool %+v", headers, st)
	if headers["fresh"]+headers["reused"] != clients*rounds || headers["fresh"] != st.Fresh || headers["reused"] != st.Reuses {
		t.Fatalf("headers %v, pool %+v: want fresh = Fresh and reused = Reuses over %d requests", headers, st, clients*rounds)
	}
}

// TestGuestTrapReturnsStructuredError: a guest that traps (use after
// free; recursion without end, which used to take the whole daemon
// down with Go's fatal stack overflow) must produce a structured JSON
// error response — not crash the daemon, which must keep serving.
func TestGuestTrapReturnsStructuredError(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, trap := range []struct{ src, text string }{
		{`
int main(void) {
    int *p = (int*)malloc(4 * sizeof(int));
    free(p);
    return p[0];
}
`, "runtime error"},
		{`
int f(int n) { return f(n + 1) + 1; }
int main(void) { return f(0); }
`, "stack overflow: call depth exceeds"},
	} {
		resp := post(t, ts, RunRequest{Source: trap.src})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("trap status = %d, want 422", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Fatalf("trap content type = %q, want JSON", ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(readBody(t, resp)), &e); err != nil {
			t.Fatalf("trap body not JSON: %v", err)
		}
		if !strings.HasPrefix(e.Error, "run:") || !strings.Contains(e.Error, trap.text) {
			t.Fatalf("trap error %q does not describe the run fault (%s)", e.Error, trap.text)
		}

		// The daemon survives and keeps serving.
		resp = post(t, ts, RunRequest{Source: `int main(void) { printf("alive\n"); return 0; }`})
		if resp.StatusCode != http.StatusOK || readBody(t, resp) != "alive\n" {
			t.Fatal("daemon did not keep serving after a guest trap")
		}
	}
}

// TestDefaultEngineIsTape: every request runs on the tape. The retired
// "engine" option an older client may still send is ignored, so a
// request naming "closure" is served the very program a request naming
// none built.
func TestDefaultEngineIsTape(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	src, err := json.Marshal(serveSrc)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i, options := range []string{`{}`, `{"engine": "closure"}`} {
		body := `{"source": ` + string(src) + `, "options": ` + options + `}`
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if out := readBody(t, resp); resp.StatusCode != http.StatusOK || out != "sum=85344\n" {
			t.Fatalf("options %s: status %d body %q", options, resp.StatusCode, out)
		}
		if build := resp.Header.Get("X-Purecd-Build"); i > 0 && build != "memory" {
			t.Errorf("options %s: build %q, want the first request's program from memory", options, build)
		}
		keys = append(keys, resp.Header.Get("X-Purecd-Program"))
	}
	if keys[0] != keys[1] {
		t.Errorf("program keys %v differ: the engine option must not reach the build", keys)
	}
}

// TestTrapTrailerText: a guest that traps after streaming output gets
// the fault as the X-Purecd-Error trailer, with Go's "runtime error: "
// prefix once.
func TestTrapTrailerText(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	src := `int main(void) {
    int *p = (int*)malloc(4 * sizeof(int));
    printf("before\n");
    p[9] = 3;
    return 0;
}`
	resp := post(t, ts, RunRequest{Source: src})
	if body := readBody(t, resp); body != "before\n" {
		t.Fatalf("body %q", body)
	}
	want := "runtime error: index out of range [9] with length 4"
	if got := resp.Trailer.Get("X-Purecd-Error"); got != want {
		t.Errorf("trailer %q, want %q", got, want)
	}
}

// TestBuildErrorReturnsStructuredError: source the front end rejects is
// a clean 422, not a daemon fault.
func TestBuildErrorReturnsStructuredError(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts, RunRequest{Source: `int main(void) { return 0`})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	if body := readBody(t, resp); !strings.Contains(body, "error") {
		t.Fatalf("body %q carries no error", body)
	}
}

// TestAdmissionSaturationRejectsAndDrains: with one run slot, no queue
// and a long-running guest, concurrent extra requests must be rejected
// (429 for the per-program quota, 503 for the full queue) while the
// in-flight run completes — and afterwards the daemon serves normally
// again.
func TestAdmissionSaturationRejectsAndDrains(t *testing.T) {
	_, ts := newTestServer(t, Options{
		MaxConcurrent:   1,
		QueueDepth:      1,
		QueueTimeout:    50 * time.Millisecond,
		PerProgramLimit: 1,
	})
	// A guest slow enough to hold its slot while the others arrive.
	slow := `
int main(void) {
    int s = 0;
    for (int i = 0; i < 20000000; i++)
        s += i % 7;
    printf("s=%d\n", s);
    return 0;
}
`
	// Distinct fast sources dodge the per-program quota and contend on
	// the global gate instead.
	fastFor := func(i int) string {
		return fmt.Sprintf(`int main(void) { printf("f%d\n"); return 0; }`, i)
	}

	const extra = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	launch := func(src string) {
		defer wg.Done()
		body, _ := json.Marshal(RunRequest{Source: src})
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		mu.Lock()
		statuses[resp.StatusCode]++
		mu.Unlock()
	}

	wg.Add(1)
	go launch(slow)
	time.Sleep(20 * time.Millisecond) // let the slow run take the slot
	// Same program again: per-program quota, expect 429.
	wg.Add(1)
	go launch(slow)
	// Distinct programs: queue of depth 1 with a short timeout, expect
	// 503s among them.
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go launch(fastFor(i))
	}
	wg.Wait()

	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429 under per-program saturation: %v", statuses)
	}
	if statuses[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("no 503 under queue saturation: %v", statuses)
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("nothing completed during saturation: %v", statuses)
	}

	// Saturation over: the daemon drains and serves cleanly again.
	resp := post(t, ts, RunRequest{Source: `int main(void) { printf("after\n"); return 0; }`})
	if resp.StatusCode != http.StatusOK || readBody(t, resp) != "after\n" {
		t.Fatal("daemon did not drain back to normal service")
	}
}

// TestQuotasDoNotAccumulate: a program's run count is dropped when its
// last run ends, so serving many distinct programs leaves no quota
// entries behind.
func TestQuotasDoNotAccumulate(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for i := 0; i < 20; i++ {
		resp := post(t, ts, RunRequest{Source: fmt.Sprintf(`int main(void) { printf("%%d\n", %d); return 0; }`, i)})
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK || body != fmt.Sprintf("%d\n", i) {
			t.Fatalf("program %d: status %d, body %q", i, resp.StatusCode, body)
		}
	}
	s.mu.Lock()
	n := len(s.quotas)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d quota entries left after every run ended, want 0", n)
	}
}

// TestStdoutMatchesPurecc: the daemon's response body must be
// byte-for-byte the stdout a direct purecc-style run produces.
func TestStdoutMatchesPurecc(t *testing.T) {
	src := `
float v[8];

int main(void) {
    srand(7);
    for (int i = 0; i < 8; i++)
        v[i] = (float)(rand() % 100) * 0.25f;
    for (int i = 0; i < 8; i++)
        printf("v[%d]=%f\n", i, v[i]);
    printf("done %d\n", rand() % 1000);
    return 0;
}
`
	// Reference: the compiler chain run directly, as cmd/purecc does.
	var want bytes.Buffer
	prog, _, _, err := core.BuildProgram(src, core.Config{FileName: "request.c", Parallelize: true})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := prog.NewProcess(comp.ProcOptions{Team: rt.NewTeam(1), Stdout: &want})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.RunMain(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{})
	for run := 0; run < 3; run++ { // cold, then pooled reuses
		resp := post(t, ts, RunRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d status %d", run, resp.StatusCode)
		}
		if got := readBody(t, resp); got != want.String() {
			t.Fatalf("run %d body %q, want %q", run, got, want.String())
		}
	}
}

// TestRunOptionsValidated: bad options are 400s, and option variants
// produce distinct cache keys (a sequential build is not served the
// parallel Program).
func TestRunOptionsValidated(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, req := range []RunRequest{
		{Source: ""},
		{Source: "int main(void){return 0;}", Options: RunOptions{Backend: "clang"}},
		{Source: "int main(void){return 0;}", Options: RunOptions{Cores: -1}},
		{Source: "int main(void){return 0;}", Options: RunOptions{Schedule: "bogus"}},
		{Source: "int main(void){return 0;}", Options: RunOptions{Schedule: "dynamic,0"}},
	} {
		resp := post(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400", req.Options, resp.StatusCode)
		}
		body := readBody(t, resp)
		if req.Options.Schedule == "bogus" && !strings.Contains(body, `unknown schedule \"bogus\"`) {
			t.Fatalf("bogus schedule: body %s", body)
		}
	}
	// Rejected before admission: nothing was built or cached.
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("cache holds %d programs after rejected requests", n)
	}

	src := `int main(void) { printf("ok\n"); return 0; }`
	for _, opts := range []RunOptions{
		{},
		{Sequential: true},
		{Memoize: true},
		{Backend: "icc", Cores: 2, Schedule: "dynamic,1"},
	} {
		resp := post(t, ts, RunRequest{Source: src, Options: opts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", opts, resp.StatusCode, readBody(t, resp))
		}
		if got := readBody(t, resp); got != "ok\n" {
			t.Fatalf("%+v: body %q", opts, got)
		}
	}
	// Four distinct configurations -> four distinct cached Programs.
	if n := s.Cache().Len(); n != 4 {
		t.Fatalf("cache holds %d programs, want 4 distinct configs", n)
	}
}

// TestBodyLimit: a body over MaxSourceBytes is a 413 naming the limit
// (not a truncated-JSON 400), a body of exactly the limit is served,
// and malformed JSON under the limit stays a 400, as does data after
// the JSON object.
func TestBodyLimit(t *testing.T) {
	body, err := json.Marshal(RunRequest{Source: `int main(void) { printf("ok\n"); return 0; }`})
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(len(body))
	s, ts := newTestServer(t, Options{MaxSourceBytes: limit})
	send := func(b []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}

	over, err := json.Marshal(RunRequest{Source: "int main(void) { return 0; }" + strings.Repeat(" ", 200)})
	if err != nil {
		t.Fatal(err)
	}
	code, got := send(over)
	if want := fmt.Sprintf(`{"error":"request body exceeds the %d-byte limit"}`+"\n", limit); code != http.StatusRequestEntityTooLarge || got != want {
		t.Errorf("over the limit: %d %s, want 413 %s", code, got, want)
	}

	if code, got := send(body); code != http.StatusOK || got != "ok\n" {
		t.Errorf("exactly at the limit: %d %q, want 200 \"ok\\n\"", code, got)
	}

	code, got = send([]byte(`{"source": "int main`))
	if code != http.StatusBadRequest || !strings.Contains(got, "bad request body") {
		t.Errorf("malformed under the limit: %d %s, want 400", code, got)
	}

	code, got = send([]byte(`{"source": "int main(void) { return 0; }"} {}`))
	if code != http.StatusBadRequest || !strings.Contains(got, "after top-level value") {
		t.Errorf("data after the object: %d %s, want 400", code, got)
	}
	if n := s.reqs.BadRequests.Load(); n != 3 {
		t.Errorf("bad_requests = %d, want 3", n)
	}
}

// TestConcurrentRequestsKeepTheirSources: request bodies are read into
// pooled buffers, so a buffer reused while an earlier request still
// read its source would run the wrong program. Distinct sources of
// distinct lengths, posted concurrently twice over (compiled, then
// memory hits), must each print their own number. Run under -race.
func TestConcurrentRequestsKeepTheirSources(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 4, QueueDepth: 64})
	const n = 32
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := fmt.Sprintf("int main(void) {\n    printf(\"%%d\\n\", %d);\n    return 0;\n}\n// %s\n", i, strings.Repeat("x", 97*i))
				body, err := json.Marshal(RunRequest{Source: src})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				out, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("%d\n", i); resp.StatusCode != http.StatusOK || string(out) != want {
					t.Errorf("round %d source %d: %d %q, want 200 %q", round, i, resp.StatusCode, out, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestStatsEndpoint: /stats reports request counters, cache hit rates
// and pool reuse after traffic.
func TestStatsEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{CacheDir: dir})
	req := RunRequest{Source: serveSrc}
	for i := 0; i < 3; i++ {
		readBody(t, post(t, ts, req))
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal([]byte(readBody(t, resp)), &st); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if st.Requests.Total != 3 || st.Requests.OK != 3 {
		t.Fatalf("request counters %+v, want 3 total / 3 ok", st.Requests)
	}
	if st.ProgramCache.Hits != 2 || st.ProgramCache.Misses != 1 {
		t.Fatalf("cache counters %+v, want 2 hits / 1 miss", st.ProgramCache)
	}
	if st.DiskCache == nil || st.DiskCache.Stores != 1 {
		t.Fatalf("disk cache stats %+v, want 1 store", st.DiskCache)
	}
	if st.Pool.Reuses != 2 || st.Pool.Fresh != 1 {
		t.Fatalf("pool stats %+v, want 2 reuses / 1 fresh", st.Pool)
	}
	if st.Latency.Count != 3 || st.Latency.MaxMs <= 0 {
		t.Fatalf("latency stats %+v", st.Latency)
	}

	// The handler serializes the same snapshot the API exposes.
	if s.StatsSnapshot().Requests.Total != 3 {
		t.Fatal("StatsSnapshot disagrees with /stats")
	}
}

// TestStatsTellRejectionReasons: /stats' disk_cache says why an entry
// was rejected. A restarted daemon finds one entry with a flipped bit
// in its source text and one stamped with another format version; it
// serves both requests by rebuilding, counts one as corrupt and one as
// stale (none as a revalidation failure: both fail before the payload
// is looked at), and the daemon after that finds two good entries.
func TestStatsTellRejectionReasons(t *testing.T) {
	dir := t.TempDir()
	reqs := []RunRequest{
		{Source: serveSrc},
		{Source: strings.Replace(serveSrc, "i * i", "i * i + 1", 1)},
	}
	var want []string
	_, ts := newTestServer(t, Options{CacheDir: dir})
	for _, req := range reqs {
		want = append(want, readBody(t, post(t, ts, req)))
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache dir holds %v (err %v), want 2 entries", entries, err)
	}
	mangle := func(path string, old, new string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(old)) {
			t.Fatalf("%s: no %q to edit", path, old)
		}
		if err := os.WriteFile(path, bytes.Replace(data, []byte(old), []byte(new), 1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mangle(entries[0], "buf[i]", "buf[j]")
	mangle(entries[1], `{"version":`, `{"version":9`)

	diskStats := func(ts *httptest.Server) core.DiskStats {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := json.Unmarshal([]byte(readBody(t, resp)), &st); err != nil {
			t.Fatalf("stats not JSON: %v", err)
		}
		if st.DiskCache == nil {
			t.Fatal("/stats has no disk_cache")
		}
		return *st.DiskCache
	}
	serve := func(ts *httptest.Server, build string) {
		for i, req := range reqs {
			resp := post(t, ts, req)
			if got := resp.Header.Get("X-Purecd-Build"); got != build {
				t.Fatalf("request %d: X-Purecd-Build = %q, want %s", i, got, build)
			}
			if out := readBody(t, resp); out != want[i] {
				t.Fatalf("request %d: output %q, want %q", i, out, want[i])
			}
		}
	}

	_, ts2 := newTestServer(t, Options{CacheDir: dir})
	serve(ts2, "compiled")
	if st := diskStats(ts2); st.Corrupt != 1 || st.Stale != 1 || st.Revalidation != 0 ||
		st.Misses != 2 || st.Hits != 0 || st.Stores != 2 {
		t.Fatalf("disk stats after two rejections = %+v, want 1 corrupt, 1 stale, 0 revalidation, 2 misses, 2 stores", st)
	}

	_, ts3 := newTestServer(t, Options{CacheDir: dir})
	serve(ts3, "disk")
	if st := diskStats(ts3); st.Hits != 2 || st.Corrupt+st.Stale+st.Revalidation+st.Misses != 0 {
		t.Fatalf("disk stats after the rebuild = %+v, want 2 clean hits", st)
	}
}

// TestHostileSourcesAreRejected posts sources that once took the whole
// process down — a Go fatal error (out of memory, stack overflow) no
// recover can catch — and requires each to be answered with a 4xx
// naming the limit it hit, after which the daemon still serves.
func TestHostileSourcesAreRejected(t *testing.T) {
	var bomb strings.Builder
	bomb.WriteString("#define M0 1\n")
	for i := 1; i <= 30; i++ {
		fmt.Fprintf(&bomb, "#define M%d M%d+M%d\n", i, i-1, i-1)
	}
	bomb.WriteString("int main(void) { return M30; }\n")
	for _, c := range []struct {
		name, src, limit string
	}{
		{"global-array", "float big[100000000000];\nint main(void) { big[0] = 1.0f; return 0; }",
			"exceeds the 268435456-cell limit"},
		{"local-array", "int main(void) { float big[100000000000]; big[0] = 1.0f; return 0; }",
			"exceeds the 268435456-cell limit"},
		{"malloc", "int main(void) { float *p = (float*)malloc(35184372088832 * sizeof(float)); p[0] = 1.0f; return 0; }",
			"exceeds the 268435456-cell limit"},
		{"negative-malloc", "int main(void) { int n = -4; int *p = (int*)malloc(n * sizeof(int)); return 0; }",
			"allocation of negative size"},
		{"nested-blocks", "int main(void) " + strings.Repeat("{", 10000) + strings.Repeat("}", 10000),
			"statement nesting exceeds 127 levels"},
		{"nested-parens", "int main(void) { return " + strings.Repeat("(", 1000000) + "1" + strings.Repeat(")", 1000000) + "; }",
			"expression nesting exceeds 1024 levels"},
		{"operator-chain", "int main(void) { int x = 1" + strings.Repeat("+1", 1000000) + "; return x; }",
			"expression nesting exceeds 1024 levels"},
		{"macro-bomb", bomb.String(), "macro expansion exceeds 16777216 bytes"},
		{"deep-print", "int main(void) {\nint x = 0;\n" + strings.Repeat("{", 125) + strings.Repeat("x = x + 1;\n", 50000) +
			strings.Repeat("}", 125) + "\nreturn x;\n}\n", "printed source exceeds 16777216 bytes"},
		{"trailing-escape", "\"\\", "unterminated string literal"},
		{"void-parameter", "int f(void A){ return 0; } int main(void){ return 0; }",
			"parameter 1 of f has type void"},
	} {
		_, ts := newTestServer(t, Options{})
		// Twice: the second request meets whatever the first left in
		// the program cache.
		for i := 0; i < 2; i++ {
			resp := post(t, ts, RunRequest{Source: c.src})
			body := readBody(t, resp)
			if resp.StatusCode < 400 || resp.StatusCode >= 500 || !strings.Contains(body, c.limit) {
				t.Errorf("%s #%d: %d %s, want a 4xx naming %q", c.name, i, resp.StatusCode, body, c.limit)
			}
		}
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatalf("%s: /stats: %v", c.name, err)
		}
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: /stats got %d %q", c.name, resp.StatusCode, body)
		}
		resp = post(t, ts, RunRequest{Source: serveSrc})
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK || body != "sum=85344\n" {
			t.Errorf("%s: the next request got %d %q", c.name, resp.StatusCode, body)
		}
	}
}
