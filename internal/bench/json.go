package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Machine-readable figure export. purebench -json serializes each
// collected figure as BENCH_<FIG>.json next to the text tables, and
// CheckBaseline lets CI compare a fresh quick run against committed
// baselines without parsing the human tables.

// JSONPoint is one measured configuration of a figure.
type JSONPoint struct {
	// Workload names the program variant ("axpy/tape", "hist[] reduction
	// (16 bins)", …).
	Workload string `json:"workload"`
	// Cores is the simulated team size of the measurement (1 = serial).
	Cores int `json:"cores"`
	// Schedule is the loop schedule of parallel points ("default" when
	// the pragma names none); empty for serial measurements.
	Schedule string `json:"schedule,omitempty"`
	// Seconds is the measured run time (simulated critical path for
	// multi-core points).
	Seconds float64 `json:"seconds,omitempty"`
	// NsPerOp is Seconds normalized per logical operation of the
	// workload, when the figure knows its operation count.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// Speedup is the figure's ratio metric for this point (vs the
	// figure's own baseline); 0 when the point is a baseline itself.
	Speedup float64 `json:"speedup,omitempty"`
	// Sim marks measurements taken in simulated time (virtual cores on
	// an rt.SimTeam); real wall-clock points leave it false.
	Sim bool `json:"sim"`
}

// JSONFigure is one figure's machine-readable form.
type JSONFigure struct {
	Fig    string      `json:"fig"`
	Title  string      `json:"title"`
	Points []JSONPoint `json:"points"`
}

// Filename returns the canonical file name of the figure export.
func (f *JSONFigure) Filename() string {
	fig := strings.ReplaceAll(strings.ToUpper(f.Fig), " ", "_")
	return "BENCH_" + fig + ".json"
}

// Write serializes the figure into dir and returns the file path.
func (f *JSONFigure) Write(dir string) (string, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	path := filepath.Join(dir, f.Filename())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadJSONFigure loads a figure export written by Write.
func ReadJSONFigure(path string) (*JSONFigure, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &JSONFigure{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return f, nil
}

// CheckBaseline compares a fresh collection against a committed
// baseline of the same figure and returns one message per regression
// (nil means clean). Only ratio metrics are compared — speedups are
// machine-relative, absolute seconds are not — and the threshold is
// deliberately generous so only large regressions (a speedup falling
// below a quarter of its baseline, or a baseline point disappearing)
// fail a loaded CI box. Real (non-simulated) multi-core points are
// checked for presence only — their wall-clock ratios are
// machine-relative twice over.
func CheckBaseline(cur, base *JSONFigure) []string {
	key := func(p JSONPoint) string {
		return fmt.Sprintf("%s|%d|%s", p.Workload, p.Cores, p.Schedule)
	}
	idx := make(map[string]JSONPoint, len(cur.Points))
	for _, p := range cur.Points {
		idx[key(p)] = p
	}
	var bad []string
	for _, bp := range base.Points {
		cp, ok := idx[key(bp)]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: point %q (cores=%d) missing from current run",
				base.Fig, bp.Workload, bp.Cores))
			continue
		}
		// Real (non-simulated) multi-core points are wall-clock
		// goroutine measurements: their ratio depends on the physical
		// core count of the measuring machine, so only their presence
		// is checked.
		if !bp.Sim && bp.Cores > 1 {
			continue
		}
		if bp.Speedup > 0 && cp.Speedup < bp.Speedup/4 {
			bad = append(bad, fmt.Sprintf("%s: %q (cores=%d) speedup %.2fx fell below a quarter of baseline %.2fx",
				base.Fig, bp.Workload, bp.Cores, cp.Speedup, bp.Speedup))
		}
	}
	return bad
}

// speedupFigureJSON flattens a rendered speedup Figure into points
// (ratio metric only — a speedup figure carries no absolute seconds).
// Real series export with Sim false at every core count: their
// multi-core points are wall-clock goroutine measurements.
func speedupFigureJSON(id string, f *Figure) *JSONFigure {
	jf := &JSONFigure{Fig: id, Title: f.Title}
	for _, s := range f.Series {
		for _, c := range sortedCores(f.Cores) {
			sp, ok := s.Times[c]
			if !ok {
				continue
			}
			jf.Points = append(jf.Points, JSONPoint{
				Workload: s.Name, Cores: c, Schedule: "default",
				Speedup: sp, Sim: c > 1 && !s.Real,
			})
		}
	}
	return jf
}

// serialPoint builds one serial A/B point with per-op normalization.
func serialPoint(workload string, seconds, ops, speedup float64) JSONPoint {
	p := JSONPoint{Workload: workload, Cores: 1, Seconds: seconds, Speedup: speedup}
	if ops > 0 && seconds > 0 {
		p.NsPerOp = seconds * 1e9 / ops
	}
	return p
}

// JSON exports Fig T1 (closure-vs-tape-vs-fused serial A/B).
func (d *TapeData) JSON() *JSONFigure {
	jf := &JSONFigure{Fig: "T1",
		Title: fmt.Sprintf("statement engines: closure dispatch vs linearized tape (N=%d, %d sweeps)",
			d.P.KernN, d.P.KernReps)}
	ops := float64(d.P.KernN) * float64(d.P.KernReps)
	for _, r := range d.Workloads {
		fusedSp := 0.0
		if r.Fused > 0 {
			fusedSp = r.Closure / r.Fused
		}
		jf.Points = append(jf.Points,
			serialPoint(r.Name+"/closure", r.Closure, ops, 0),
			serialPoint(r.Name+"/tape", r.Tape, ops, r.Speedup()),
			serialPoint(r.Name+"/fused", r.Fused, ops, fusedSp))
	}
	return jf
}

// JSON exports Fig B1 (bounds-check elimination: checked-vs-elided
// serial A/Bs plus the gather parallelization curve).
func (d *BCEData) JSON() *JSONFigure {
	jf := &JSONFigure{Fig: "B1",
		Title: fmt.Sprintf("bounds-check elimination (launch rows N=%d, %d sweeps; gather N=%d from %d)",
			d.P.BCEN, d.P.BCEReps, d.P.KernN, d.P.GatherM)}
	for _, r := range d.Kernels {
		ops := float64(d.P.BCEN) * float64(d.P.BCEReps)
		switch r.Name {
		case "gather", "derived", "gather (clamp)", "ptr-scale":
			// Full-length rows (the relational rows share the gather's N).
			ops = float64(d.P.KernN) * float64(d.P.KernReps)
		}
		jf.Points = append(jf.Points,
			serialPoint(r.Name+"/checked", r.Checked, ops, 0),
			serialPoint(r.Name+"/elided", r.Elided, ops, r.Speedup()))
	}
	jf.Points = append(jf.Points,
		serialPoint("gather opaque serial", d.GatherSerial, float64(d.P.KernN)*float64(d.P.KernReps), 0))
	for _, c := range sortedCores(d.P.Cores) {
		t, ok := d.GatherPar.Times[c]
		if !ok {
			continue
		}
		sp := 0.0
		if t > 0 && d.GatherSerial > 0 {
			sp = d.GatherSerial / t
		}
		jf.Points = append(jf.Points, JSONPoint{
			Workload: "gather proven (parallel)", Cores: c, Schedule: "default",
			Seconds: t, Speedup: sp, Sim: c > 1,
		})
	}
	return jf
}

// JSON exports Fig R1 (parallel scalar-reduction speedups).
func (d *ReduceData) JSON() *JSONFigure {
	f := d.FigR1()
	jf := speedupFigureJSON("R1", f)
	jf.Points = append(jf.Points,
		serialPoint("sum seq gcc", d.SumSeq, float64(d.P.ReduceN), 0),
		serialPoint("dot seq gcc", d.DotSeq, float64(d.P.ReduceN), 0))
	return jf
}

// JSON exports Fig A1 (array-reduction speedups across the bin sweep).
func (d *HistData) JSON() *JSONFigure {
	f := d.FigA1()
	jf := speedupFigureJSON("A1", f)
	for _, bins := range sortedCores(append([]int{}, d.P.HistBins...)) {
		jf.Points = append(jf.Points,
			serialPoint(fmt.Sprintf("hist seq (%d bins)", bins), d.Seq[bins], float64(d.P.HistN), 0))
	}
	return jf
}
