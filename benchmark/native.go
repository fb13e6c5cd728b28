package main

// Hand-written Go loops for the six kernel shapes, as a programmer would
// write them over plain slices: the "fraction of hardware" reference of
// comp.native_ratio.<kernel>. They follow the sources in internal/apps
// (float32 data, float32 arithmetic per element).

func nativeAxpy(a float32, x, y []float32, reps int) {
	for r := 0; r < reps; r++ {
		for i := range y {
			y[i] = a*x[i] + y[i]
		}
	}
}

func nativeCopy(x, y []float32, reps int) {
	for r := 0; r < reps; r++ {
		for i := range y {
			y[i] = x[i]
		}
	}
}

func nativeStencil(c float32, x, y []float32, reps int) {
	for r := 0; r < reps; r++ {
		for i := 1; i < len(y)-1; i++ {
			y[i] = c * (x[i-1] + x[i] + x[i+1])
		}
	}
}

func nativeDot(x, y []float32) float32 {
	var res float32
	for i := range x {
		res += x[i] * y[i]
	}
	return res
}

func nativeGather(idx []int32, x, y []float32, reps int) {
	for r := 0; r < reps; r++ {
		for i := range y {
			y[i] = x[idx[i]]
		}
	}
}

func nativeHist(data []int32, hist []int64) {
	for _, d := range data {
		hist[d]++
	}
}
