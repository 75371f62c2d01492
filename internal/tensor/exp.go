package tensor

import (
	"math"

	"repro/internal/vec"
)

// The float32 exponential every backend computes (DESIGN.md §5): the scheme
// of Cephes' expf, written so that each step is one IEEE float32 operation
// in a fixed order —
//
//	n = round(x * log2(e))            by adding and subtracting 1.5 * 2^23
//	r = (x - n*ln2Hi) - n*ln2Lo       ln 2 in two parts, n*ln2Hi exact
//	y = 1 + r + r^2 * P(r)            P of degree 5, Horner, every product
//	                                  rounded before its add
//	e^x = (y * 2^(n>>1)) * 2^(n-(n>>1))   two powers of two built from exponent
//	                                  bits, so that results down to the
//	                                  smallest denormal round once
//
// with three explicit arms: a NaN is returned as it is, x above expHi is +Inf
// and x below expLo is 0, the two thresholds being the last inputs for which
// the standard library's float64 exponential, rounded to float32, is still
// finite and still non-zero. Because every step is a single rounded operation
// the eight-lane kernel in internal/vec computes the same bits, and because
// the reference interpreter calls this same function no backend differs from
// another by an ulp. Against that rounded float64 exponential the result is
// within 2 ulp (measured over all 2.24e9 inputs between the thresholds: 99.2 %
// equal, the rest 1 ulp away) and equal at +-0, +-Inf and beyond both
// thresholds (exp_test.go holds it to that).
const (
	expLog2e = 1.44269504088896341
	expMagic = 12582912.0 // 1.5 * 2^23: adding it leaves round(v) in the low mantissa bits
	expLn2Hi = 0.693359375
	expLn2Lo = -2.12194440e-4
	expC5    = 1.9875691500e-4
	expC4    = 1.3981999507e-3
	expC3    = 8.3334519073e-3
	expC2    = 4.1665795894e-2
	expC1    = 1.6666665459e-1
	expC0    = 5.0000001201e-1
	expHi    = 88.72283   // 0x42B17217
	expLo    = -103.97208 // 0xC2CFF1B4
	expBias  = 0x3F800000 // the bits of 1.0: an exponent of zero
	expMBits = 0x4B400000 // the bits of expMagic
)

// expTable hands the kernel the constants above.
var expTable = vec.ExpTable{
	Log2e: expLog2e, Magic: expMagic, Ln2Hi: expLn2Hi, Ln2Lo: expLn2Lo,
	C:  [6]float32{expC5, expC4, expC3, expC2, expC1, expC0},
	Hi: expHi, Lo: expLo,
}

// exp32 is e^x as defined above.
func exp32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > expHi:
		return float32(math.Inf(1))
	case x < expLo:
		return 0
	}
	t := float32(x*expLog2e) + expMagic
	n := int32(math.Float32bits(t)) - expMBits
	kf := t - expMagic
	r := x - float32(kf*expLn2Hi)
	r -= float32(kf * expLn2Lo)
	p := float32(expC5*r) + expC4
	p = float32(p*r) + expC3
	p = float32(p*r) + expC2
	p = float32(p*r) + expC1
	p = float32(p*r) + expC0
	y := float32(p*float32(r*r)) + r
	y++
	n1 := n >> 1
	s1 := math.Float32frombits(uint32(n1)<<23 + expBias)
	s2 := math.Float32frombits(uint32(n-n1)<<23 + expBias)
	return float32(y*s1) * s2
}

// Exp applies e^x element-wise in place: the leading elements eight at a time
// through the vector kernel, which yields the same bits, the rest here.
func Exp(t *Dense) {
	d := t.Data
	for i := vec.Exp(d, &expTable); i < len(d); i++ {
		d[i] = exp32(d[i])
	}
}
