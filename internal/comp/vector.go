package comp

import "purec/internal/mem"

// reduceKern is a matched reduce kernel (see matchReduce): the ICC
// analog of automatic vectorization. It accumulates directly over the
// memory segments instead of dispatching closures per iteration,
// preserving C float rounding per iteration, so results are
// bit-identical to the unvectorized backend. The kernel runs in chunk
// form — sequential loops once, parallel reduction regions once per
// worker chunk on the worker's private clone (see parallelReduceFor).
//
// x is the direct operand; y a second direct factor (dot product), g a
// gathered factor (the ELL SpMV shape acc += X[s+k] * Y[Z[t+k]]), both
// nil for a plain sum. prodRound marks a product the scalar path rounds
// through a float return before accumulating.
type reduceKern struct {
	sink      accSink
	x         kAccess
	y         *kAccess
	g         *kGather
	prodRound bool
}

// open starts one launch on the accumulator: its current value and,
// for a memory cell, the cell. live reports that the cell lies inside
// an operand span or in the gathered array's segment — some iteration
// may read what an earlier one accumulated, so the launch must run
// write-through (add) instead of folding into a local (contract rule
// 4). Disjoint sinks such as C[i][j] += A[i][k]*Bt[j][k] keep the
// cached loop.
func (s *accSink) open(e *env, gathered *mem.Segment, spans ...kspan) (p mem.Pointer, acc float64, live bool) {
	if s.cell == nil {
		return p, e.F[s.slot], false
	}
	p = s.cell(e)
	live = gathered != nil && p.Seg == gathered
	for _, sp := range spans {
		live = live || sp.holds(p)
	}
	if live {
		return p, 0, true
	}
	return p, p.LoadFloat(), false
}

// close stores the folded accumulator of a cached launch.
func (s *accSink) close(e *env, p mem.Pointer, acc float64) {
	if s.cell == nil {
		e.F[s.slot] = acc
	} else {
		p.StoreFloat(acc)
	}
}

// add is one write-through iteration: cell = round(cell + term).
func (s *accSink) add(p mem.Pointer, term float64) {
	v := p.LoadFloat() + term
	if s.f32 {
		v = float64(float32(v))
	}
	p.StoreFloat(v)
}

func (r *reduceKern) emit() kernRun {
	switch {
	case r.g != nil:
		return r.ell()
	case r.y != nil:
		return r.dot()
	}
	return r.sum()
}

// dot handles acc += X[s+k] * Y[t+k].
func (r *reduceKern) dot() kernRun {
	sink, x, y := &r.sink, r.x, *r.y
	f32, prodRound := sink.f32, r.prodRound
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		n := int(hi - lo + 1)
		xsp, ysp := x.span(e, lo, hi), y.span(e, lo, hi)
		xs, ys := x.cells(xsp).f, y.cells(ysp).f
		p, accv, live := sink.open(e, nil, xsp, ysp)
		switch {
		case live:
			for i := 0; i < n; i++ {
				t := xs[i] * ys[i]
				if prodRound {
					t = float64(float32(t))
				}
				sink.add(p, t)
			}
			return
		case f32 && prodRound:
			// acc = f32(acc + f32(x*y)) per iteration.
			for i := 0; i < n; i++ {
				accv = float64(float32(accv + float64(float32(xs[i]*ys[i]))))
			}
		case f32:
			// acc = f32(acc + x*y): the store rounds, the product
			// stays double (C expression semantics of the model).
			for i := 0; i < n; i++ {
				accv = float64(float32(accv + xs[i]*ys[i]))
			}
		case prodRound:
			for i := 0; i < n; i++ {
				accv += float64(float32(xs[i] * ys[i]))
			}
		default:
			for i := 0; i < n; i++ {
				accv += xs[i] * ys[i]
			}
		}
		sink.close(e, p, accv)
	}
}

// ell handles acc += X[s+k] * Y[Z[t+k]]. The direct operand and the
// index array get hoisted range checks; the gathered target keeps
// per-element checks, its indices being data-dependent.
func (r *reduceKern) ell() kernRun {
	sink, x, g := &r.sink, r.x, r.g
	f32, prodRound := sink.f32, r.prodRound
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		n := int(hi - lo + 1)
		xsp := x.span(e, lo, hi)
		xs := x.cells(xsp).f
		zs := g.idx.prep(e, lo, hi).i
		py := g.base(e)
		yf := py.Seg.F
		yo := py.Off
		p, accv, live := sink.open(e, py.Seg, xsp)
		switch {
		case live:
			for i := 0; i < n; i++ {
				t := xs[i] * yf[yo+int(zs[i])]
				if prodRound {
					t = float64(float32(t))
				}
				sink.add(p, t)
			}
			return
		case prodRound:
			for i := 0; i < n; i++ {
				accv += float64(float32(xs[i] * yf[yo+int(zs[i])]))
				if f32 {
					accv = float64(float32(accv))
				}
			}
		case f32:
			for i := 0; i < n; i++ {
				accv = float64(float32(accv + xs[i]*yf[yo+int(zs[i])]))
			}
		default:
			for i := 0; i < n; i++ {
				accv += xs[i] * yf[yo+int(zs[i])]
			}
		}
		sink.close(e, p, accv)
	}
}

// sum handles acc += X[s+k].
func (r *reduceKern) sum() kernRun {
	sink, x := &r.sink, r.x
	f32 := sink.f32
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		n := int(hi - lo + 1)
		xsp := x.span(e, lo, hi)
		xs := x.cells(xsp).f
		p, accv, live := sink.open(e, nil, xsp)
		switch {
		case live:
			for i := 0; i < n; i++ {
				sink.add(p, xs[i])
			}
			return
		case f32:
			for i := 0; i < n; i++ {
				accv = float64(float32(accv + xs[i]))
			}
		default:
			for i := 0; i < n; i++ {
				accv += xs[i]
			}
		}
		sink.close(e, p, accv)
	}
}
