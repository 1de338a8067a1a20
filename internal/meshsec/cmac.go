package meshsec

import (
	"crypto/cipher"
	"crypto/subtle"
)

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
	cmacCTR(b, k1, k2, nil, msg, x, nil)
}

// cmacCTR computes the AES-CMAC tag of head||msg into x without
// assembling the message: head (at most one block; a frame's AAD) is
// folded into the first block. It also encrypts ks, a run of whole CTR
// counter blocks, in place under the same cipher: one keystream block
// after each chain block, where it fills the chain's wait for its own
// encryption, and any blocks the chain outlasts after it.
func cmacCTR(b cipher.Block, k1, k2 *[16]byte, head, msg []byte, x *[16]byte, ks []byte) {
	*x = [16]byte{}
	var blk [16]byte
	if n := len(head) + len(msg); n > 16 && len(head) > 0 {
		copy(x[:], head)
		msg = msg[copy(x[len(head):], msg):]
		ks = cmacStep(b, x, ks)
	} else if len(head) > 0 {
		// head||msg is one block, and so the last.
		copy(blk[:], head)
		copy(blk[len(head):], msg)
		msg = blk[:n]
	}
	// All complete blocks but the last.
	for len(msg) > 16 {
		subtle.XORBytes(x[:], x[:], msg[:16])
		msg = msg[16:]
		ks = cmacStep(b, x, ks)
	}
	// Final block: XOR K1 when complete, pad + XOR K2 otherwise. The
	// subkey goes into the block first, which does not wait for the chain.
	var last [16]byte
	k := k1
	if len(msg) < 16 {
		copy(last[:], msg)
		last[len(msg)] = 0x80
		msg, k = last[:], k2
	}
	subtle.XORBytes(last[:], msg, k[:])
	subtle.XORBytes(x[:], x[:], last[:])
	encryptBlocks(b, cmacStep(b, x, ks))
}

// cmacStep encrypts the chaining block and, if any is left, the next
// keystream block, and returns the keystream blocks still to encrypt.
func cmacStep(b cipher.Block, x *[16]byte, ks []byte) []byte {
	b.Encrypt(x[:], x[:])
	if len(ks) < 16 {
		return ks
	}
	b.Encrypt(ks[:16], ks[:16])
	return ks[16:]
}

// encryptBlocks encrypts a run of whole blocks in place.
func encryptBlocks(b cipher.Block, blocks []byte) {
	for ; len(blocks) >= 16; blocks = blocks[16:] {
		b.Encrypt(blocks[:16], blocks[:16])
	}
}
