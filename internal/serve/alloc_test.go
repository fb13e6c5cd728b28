//go:build !race

// Race mode drops a quarter of sync.Pool puts at random, so the pooled
// body buffer would be reallocated on some requests and the byte counts
// below would not be the steady state's.

package serve

import (
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestMemoryHitAllocationIsTheDecode: a memory hit allocates in
// proportion to its source only for decoding it — the unquoted bytes
// and the string made of them, 2 bytes per source byte. Doubling the
// source therefore adds at most 2.5 bytes per added source byte (size
// classes round the two up). A body read into a buffer that is not
// reused, or global segments laid out anew per run, grow with the
// program and break the bound.
func TestMemoryHitAllocationIsTheDecode(t *testing.T) {
	perRequest := func(src string) float64 {
		h, req := hitHandler(t, src)
		const warm, n = 5, 100
		for i := 0; i < warm; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req())
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req())
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, large := unitsSource(36), unitsSource(72)
	s := float64(len(large) - len(small))
	a, b := perRequest(small), perRequest(large)
	t.Logf("%d-byte source: %.0f B/request; %d-byte source: %.0f B/request (%.2f B per added source byte)",
		len(small), a, len(large), b, (b-a)/s)
	if b-a > 2.5*s {
		t.Errorf("doubling the source added %.0f B per request, over 2.5 x %.0f added source bytes", b-a, s)
	}
}
