package comp

// emitMinMax emits the min/max fold matched by matchMinMax,
//
//	for (int k = LB; k < UB; ++k) if (X[s+k] < m) m = X[s+k];
//
// as a segment-walking kernel: one hoisted range check over the chunk,
// then a tight strict-compare fold over the raw cells into frame slot
// idx. The fold preserves the dispatch path bit for bit: only strict
// comparisons update, so NaN data never replaces the accumulator, and
// a float32 accumulator rounds every stored update exactly like the
// assignment it replaces (the compare still sees the unrounded
// candidate, like the dispatch path's condition-then-assign). The
// kernel comes back in chunk form (see reduceKern), so sequential loops
// run it once while parallel min/max reductions hand each worker its
// chunk bounds.
func emitMinMax(x kAccess, idx int, min, f32 bool) kernRun {
	if x.float {
		return func(e *env, lo, hi int64) {
			if hi < lo {
				return
			}
			xs := x.prep(e, lo, hi).f
			accv := e.F[idx]
			for _, v := range xs {
				if (min && v < accv) || (!min && v > accv) {
					if f32 {
						accv = float64(float32(v))
					} else {
						accv = v
					}
				}
			}
			e.F[idx] = accv
		}
	}
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		xs := x.prep(e, lo, hi).i
		accv := e.I[idx]
		if min {
			for _, v := range xs {
				if v < accv {
					accv = v
				}
			}
		} else {
			for _, v := range xs {
				if v > accv {
					accv = v
				}
			}
		}
		e.I[idx] = accv
	}
}
