package bench

import (
	"strings"
	"testing"
)

func TestFig2Demo(t *testing.T) {
	out := Fig2()
	if !strings.Contains(out, "rectangular tiling legal: false") {
		t.Fatalf("pre-skew tiling must be illegal:\n%s", out)
	}
	if !strings.Contains(out, "rectangular tiling legal: true") {
		t.Fatalf("post-skew tiling must be legal:\n%s", out)
	}
	if !strings.Contains(out, "legal shearing factor: 1") {
		t.Fatalf("skew factor must be 1:\n%s", out)
	}
}

func TestCollectMatmulQuick(t *testing.T) {
	d, err := CollectMatmul(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if d.SeqGCC <= 0 {
		t.Fatal("no sequential baseline")
	}
	f3 := d.Fig3()
	if len(f3.Series) != 4 {
		t.Fatalf("Fig3 series: %d", len(f3.Series))
	}
	for _, s := range f3.Series {
		for _, c := range f3.Cores {
			if s.Times[c] <= 0 {
				t.Fatalf("series %s cores %d: no time", s.Name, c)
			}
		}
	}
	f5 := d.Fig5()
	if f5.Kind != "speedup" || len(f5.Series) != 7 {
		t.Fatalf("Fig5: %+v", f5)
	}
	out := f3.Render()
	if !strings.Contains(out, "Fig 3") || !strings.Contains(out, "pure (gcc)") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestCollectHeatQuick(t *testing.T) {
	d, err := CollectHeat(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 4 {
		t.Fatalf("series: %d", len(d.Series))
	}
	if out := d.Fig7().Render(); !strings.Contains(out, "speedup") {
		t.Fatalf("fig7:\n%s", out)
	}
}

func TestCollectSatelliteQuick(t *testing.T) {
	d, err := CollectSatellite(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 4 {
		t.Fatalf("series: %d", len(d.Series))
	}
	if out := d.Fig8().Render(); !strings.Contains(out, "dynamic") {
		t.Fatalf("fig8:\n%s", out)
	}
}

func TestCollectLamaQuick(t *testing.T) {
	d, err := CollectLama(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 4 {
		t.Fatalf("series: %d", len(d.Series))
	}
	if out := d.Fig11().Render(); !strings.Contains(out, "Fig 11") {
		t.Fatalf("fig11:\n%s", out)
	}
}

// TestCollectMemoQuick is the acceptance check of the memoization
// scenario: the memoizing build must show a hit-rate-driven speedup
// over the plain parallel build of the same quantized workload.
func TestCollectMemoQuick(t *testing.T) {
	p := Quick()
	// Enough argument reuse per class that the table effect dominates
	// measurement noise even on a loaded CI box.
	p.SatPix = 600
	p.SatIters = 24
	d, err := CollectMemo(p)
	if err != nil {
		t.Fatal(err)
	}
	fig := d.FigMemo()
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fig.Series))
	}
	if d.HitRate < 0.9 {
		t.Errorf("shared-table hit rate = %.2f, want ≥ 0.9 (%d pixels in %d classes)",
			d.HitRate, p.SatPix, p.MemoClasses)
	}
	plain, memoized := fig.Series[0].Times, fig.Series[1].Times
	for _, c := range fig.Cores {
		if plain[c] <= 0 || memoized[c] <= 0 {
			t.Fatalf("non-positive time at %d cores: plain=%v memo=%v", c, plain[c], memoized[c])
		}
	}
	// Compare at 1 core, where the parallel runtime cannot mask the
	// per-call saving: the memoized run recomputes only one fit per
	// class, the plain run one per pixel.
	if memoized[1] >= plain[1] {
		t.Errorf("memoized run not faster at 1 core: memo=%.4fs plain=%.4fs", memoized[1], plain[1])
	}
	t.Logf("1-core times: plain=%.4fs memoized=%.4fs (hit rate %.1f%%)",
		plain[1], memoized[1], 100*d.HitRate)
}

func TestSpeedupDerivation(t *testing.T) {
	f := &Figure{
		ID: "T", Kind: "time", Cores: []int{1, 2},
		Baseline: 10,
		Series:   []Series{{Name: "x", Times: map[int]float64{1: 10, 2: 5}}},
	}
	sp := f.Speedup("S", "t")
	if sp.Series[0].Times[1] != 1 || sp.Series[0].Times[2] != 2 {
		t.Fatalf("speedup: %+v", sp.Series[0])
	}
}
