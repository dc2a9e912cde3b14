package numeric

// ShardSpan is the fixed block length used to partition index ranges in the
// blocked kernels built on this package (the GP gradient's row blocks, the
// batched posterior's candidate blocks). Block boundaries depend only on the
// problem size, and a blocked reduction accumulates each block into its own
// partial and combines the partials in block order; that order is part of
// the result's floating-point bits.
const ShardSpan = 16

// NumShards returns how many ShardSpan-sized blocks cover [0, n).
func NumShards(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ShardSpan - 1) / ShardSpan
}

// ShardBounds returns the half-open index range [lo, hi) of block s of [0, n).
func ShardBounds(n, s int) (lo, hi int) {
	lo = s * ShardSpan
	hi = lo + ShardSpan
	if hi > n {
		hi = n
	}
	return lo, hi
}

// GrowFloats returns s resized to length n, reusing its backing array when
// the capacity allows. The contents are unspecified (callers overwrite).
func GrowFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
