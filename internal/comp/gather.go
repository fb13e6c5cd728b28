package comp

// This file emits the pure-gather map loops matchGatherMap recognizes,
//
//	for (i = lo; i </<= hi; i++) y[a*i+b] = x[idx[c*i+d]];
//
// and their ?:-clamped variants
//
//	y[a*i+b] = x[idx[c*i+d] < L ? L : (idx[c*i+d] > H ? H : idx[c*i+d])];
//
// as segment-walking kernels. The destination and the index array are
// affine operands (one hoisted range check each, elidable under a
// bounds proof like every kAccess); the gathered read x[idx[...]] is
// data-dependent, so it pays a per-element bounds test — unless the
// value-range analysis proved the index array's contents inside x's
// extent, in which case the test is elided and the loop body is a bare
// indexed copy. The elided and checked variants are bit-identical
// whenever the checked one does not trap, which the proof guarantees.

// emitGather builds the kernel: g.trusted elides the per-element bounds
// test, and the subscript's ?:-clamp applies unconditionally (open
// sides are the int64 extremes, so it stays branch-predictable).
func emitGather(dst kAccess, g kGather) kernRun {
	src, idxAcc, float, trusted := g.base, g.idx, g.float, g.trusted
	clampLo, clampHi, expr := g.lo, g.hi, g.expr
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		n := int(hi - lo + 1)
		ds := dst.prep(e, lo, hi)
		is := idxAcc.prep(e, lo, hi)
		p := src(e)
		if p.IsNull() {
			rtPanic("null pointer operand in fused loop")
		}
		if p.Seg.Freed() {
			rtPanic("use of freed segment %s", p.Seg.Name)
		}
		off := int64(p.Off)
		ix, ss := is.i, is.stride
		clamp := func(v int64) int64 {
			if v < clampLo {
				return clampLo
			}
			if v > clampHi {
				return clampHi
			}
			return v
		}
		if float {
			xs := p.Seg.F
			ys, ds2 := ds.f, ds.stride
			if trusted {
				if dst.f32 {
					for t, si, di := 0, 0, 0; t < n; t, si, di = t+1, si+ss, di+ds2 {
						ys[di] = float64(float32(xs[off+clamp(ix[si])]))
					}
				} else {
					for t, si, di := 0, 0, 0; t < n; t, si, di = t+1, si+ss, di+ds2 {
						ys[di] = xs[off+clamp(ix[si])]
					}
				}
				return
			}
			for t, si, di := 0, 0, 0; t < n; t, si, di = t+1, si+ss, di+ds2 {
				c := gatherCell(off, clamp(ix[si]), len(xs), expr)
				if dst.f32 {
					ys[di] = float64(float32(xs[c]))
				} else {
					ys[di] = xs[c]
				}
			}
			return
		}
		xs := p.Seg.I
		ys, ds2 := ds.i, ds.stride
		if trusted {
			for t, si, di := 0, 0, 0; t < n; t, si, di = t+1, si+ss, di+ds2 {
				ys[di] = xs[off+clamp(ix[si])]
			}
			return
		}
		for t, si, di := 0, 0, 0; t < n; t, si, di = t+1, si+ss, di+ds2 {
			ys[di] = xs[gatherCell(off, clamp(ix[si]), len(xs), expr)]
		}
	}
}

// gatherCell converts a data-dependent element index to a validated
// cell index, trapping like the dispatch backend's per-access checks.
func gatherCell(off, idx int64, n int, expr string) int {
	cell := off + idx
	if (idx > 0 && cell < off) || (idx < 0 && cell > off) || int64(int(cell)) != cell {
		rtPanic("pointer arithmetic overflow: offset %d + %d elements", off, idx)
	}
	if cell < 0 || cell >= int64(n) {
		rtPanic("gather read %s: cell %d out of bounds (%d cells)", expr, cell, n)
	}
	return int(cell)
}
