package meshsec

import "crypto/cipher"

// AES-CMAC (RFC 4493): the MAC half of the frame AEAD. Implemented here
// because the standard library ships AES but no CMAC, and the repo is
// dependency-free by policy.

// cmacSubkeys derives the two CMAC subkeys K1, K2 from the block cipher.
func cmacSubkeys(b cipher.Block, k1, k2 *[16]byte) {
	var l [16]byte
	b.Encrypt(l[:], l[:])
	dbl(k1, &l)
	dbl(k2, k1)
}

// dbl is doubling in GF(2^128) with the x^128+x^7+x^2+x+1 polynomial.
func dbl(dst, src *[16]byte) {
	var carry byte
	for i := 15; i >= 0; i-- {
		c := src[i] >> 7
		dst[i] = src[i]<<1 | carry
		carry = c
	}
	if carry != 0 {
		dst[15] ^= 0x87
	}
}

// cmac computes the full 16-byte AES-CMAC tag of msg into x, which is
// also the chaining block: the caller owns it so that nothing escapes per
// call through the cipher.Block interface.
func cmac(b cipher.Block, k1, k2 *[16]byte, msg []byte, x *[16]byte) {
	*x = [16]byte{}
	n := len(msg)
	// All complete blocks but the last.
	full := (n - 1) / 16 // index of the final block
	if n == 0 {
		full = 0
	}
	for i := 0; i < full; i++ {
		for j := 0; j < 16; j++ {
			x[j] ^= msg[16*i+j]
		}
		b.Encrypt(x[:], x[:])
	}
	// Final block: XOR K1 when complete, pad + XOR K2 otherwise.
	var last [16]byte
	rem := msg[16*full:]
	if len(rem) == 16 {
		copy(last[:], rem)
		for j := 0; j < 16; j++ {
			last[j] ^= k1[j]
		}
	} else {
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for j := 0; j < 16; j++ {
			last[j] ^= k2[j]
		}
	}
	for j := 0; j < 16; j++ {
		x[j] ^= last[j]
	}
	b.Encrypt(x[:], x[:])
}
