// GF(2^8) arithmetic for the Reed-Solomon repair code, using the AES-ish
// primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d) with generator 2. The
// exp table is doubled so products of two logs never need a mod-255.
package fec

var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul returns a·b in GF(2^8).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv returns a^-1 in GF(2^8); a must be nonzero.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// addScaled folds c·src into dst position-wise: dst[i] ^= c·src[i] for the
// length of src (dst must be at least as long). The c==1 fast path is the
// whole XOR scheme; the general path walks the log/exp tables once per
// nonzero byte.
func addScaled(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		for i, s := range src {
			dst[i] ^= s
		}
	default:
		lc := int(gfLog[c])
		for i, s := range src {
			if s != 0 {
				dst[i] ^= gfExp[lc+int(gfLog[s])]
			}
		}
	}
}

// coeff returns the repair-matrix coefficient applied to data symbol i by
// repair symbol j. For Reed-Solomon it is the Cauchy element
// 1/(x_j ⊕ y_i) with x_j = 255-j and y_i = i: the x and y coordinate sets
// are distinct and disjoint whenever k+r ≤ 255, and every square submatrix
// of a Cauchy matrix is invertible, so any k of the k+r symbols
// reconstruct the group (MDS). Anchoring x_j at 255-j rather than k+j
// makes the coefficients independent of the group length, which lets a
// group seal early (fewer data symbols than planned) without re-coding.
// The XOR scheme is the all-ones row: a single parity symbol.
func coeff(scheme Scheme, j, i int) byte {
	if scheme == SchemeXOR {
		return 1
	}
	return gfInv(byte(255-j) ^ byte(i))
}
