package bdi

// Differential tests: the size-only probe (EncodingOf/SizeOf), the
// payload-building compressor (Compress/CompressInto), and an independent
// slow reference implementation must agree on every block, and
// Decompress∘Compress must be the identity for every encoding. The
// reference re-derives coverage from the spec table with explicit signed
// range checks, so a shared bug in the optimized delta-width arithmetic
// cannot hide.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refCovers reports whether enc (a base+delta encoding) can represent the
// block, using the original range-check formulation.
func refCovers(block []byte, enc Encoding) bool {
	spec := SpecOf(enc)
	if spec.Base == 0 {
		return false
	}
	base := signExtend(int64(readUint(block[:spec.Base], spec.Base)), spec.Base)
	hi := int64(1)<<(uint(spec.Delta*8)-1) - 1
	lo := -hi - 1
	for i := 0; i < BlockSize; i += spec.Base {
		v := signExtend(int64(readUint(block[i:], spec.Base)), spec.Base)
		if d := v - base; d < lo || d > hi {
			return false
		}
	}
	return true
}

// refEncoding is the slow reference chooser: first-covering entry of the
// size-ordered candidate list, with the special encodings checked first.
func refEncoding(block []byte) Encoding {
	zeros := true
	for _, b := range block {
		if b != 0 {
			zeros = false
			break
		}
	}
	if zeros {
		return EncZeros
	}
	rep := true
	for i := 8; i < BlockSize; i++ {
		if block[i] != block[i%8] {
			rep = false
			break
		}
	}
	if rep {
		return EncRep8
	}
	for _, enc := range candidateOrder {
		if refCovers(block, enc) {
			return enc
		}
	}
	return EncUncompressed
}

// corpusBlock deterministically builds a block that exercises encoding enc;
// the construction targets the encoding but the tests never assume it hit.
func corpusBlock(enc Encoding) []byte {
	b := make([]byte, BlockSize)
	switch enc {
	case EncZeros:
		// all zero
	case EncRep8:
		for i := 0; i < BlockSize; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], 0x0123456789ABCDEF)
		}
	case EncUncompressed:
		r := rand.New(rand.NewSource(63))
		r.Read(b)
	default:
		spec := SpecOf(enc)
		// Deltas that need exactly spec.Delta bytes: alternate the extreme
		// positive and negative values of the width so no narrower encoding
		// of the same base covers the block.
		hi := uint64(1)<<(uint(spec.Delta*8)-1) - 1
		n := BlockSize / spec.Base
		base := uint64(1) << uint(spec.Base*8-2)
		for i := 0; i < n; i++ {
			v := base
			if i > 0 {
				if i%2 == 0 {
					v = base + hi
				} else {
					v = base - hi - 1
				}
			}
			writeUint(b[i*spec.Base:], v, spec.Base)
		}
	}
	return b
}

// TestDifferentialAllSpecs drives the corpus block of each of the 13 specs
// through every implementation pair: reference vs EncodingOf, SizeOf vs
// Compress().Size(), and exact round-trip.
func TestDifferentialAllSpecs(t *testing.T) {
	if len(Specs()) != 13 {
		t.Fatalf("spec table has %d entries, want 13", len(Specs()))
	}
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			b := corpusBlock(spec.Enc)
			if got, want := EncodingOf(b), refEncoding(b); got != want {
				t.Errorf("EncodingOf = %v, reference = %v", got, want)
			}
			c := Compress(b)
			if SizeOf(b) != c.Size() {
				t.Errorf("SizeOf = %d, Compress().Size() = %d", SizeOf(b), c.Size())
			}
			if c.Enc != spec.Enc {
				t.Logf("corpus block for %v landed on %v (allowed; smaller covering encoding)", spec.Enc, c.Enc)
			}
			got, err := Decompress(c)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if !bytes.Equal(got, b) {
				t.Errorf("roundtrip mismatch under %v", c.Enc)
			}
		})
	}
}

// TestDifferentialRandomized compares the probe, the compressor, and the
// reference on a large randomized block population spanning every regime
// (random bytes, per-base-size delta clusters at boundary widths, sparse).
func TestDifferentialRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(20230222))
	hit := make(map[Encoding]int)
	for iter := 0; iter < 20000; iter++ {
		b := make([]byte, BlockSize)
		switch iter % 8 {
		case 0:
			r.Read(b)
		case 1: // base-8, delta width drawn 1..8
			base := r.Uint64()
			w := uint(1 + r.Intn(8))
			for i := 0; i < 8; i++ {
				d := uint64(r.Int63()) & (1<<(8*w) - 1)
				binary.LittleEndian.PutUint64(b[i*8:], base+d-(1<<(8*w-1)))
			}
		case 2: // base-4
			base := r.Uint32()
			w := uint(1 + r.Intn(4))
			for i := 0; i < 16; i++ {
				d := uint32(r.Int63()) & (1<<(8*w) - 1)
				binary.LittleEndian.PutUint32(b[i*4:], base+d-(1<<(8*w-1)))
			}
		case 3: // base-2
			base := uint16(r.Uint32())
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint16(b[i*2:], base+uint16(r.Intn(512))-256)
			}
		case 4: // sparse
			for i := 0; i < 1+r.Intn(6); i++ {
				b[r.Intn(BlockSize)] = byte(r.Intn(256))
			}
		case 5: // repeated qword, sometimes perturbed
			v := r.Uint64()
			for i := 0; i < BlockSize; i += 8 {
				binary.LittleEndian.PutUint64(b[i:], v)
			}
			if r.Intn(2) == 0 {
				b[r.Intn(BlockSize)] ^= byte(1 + r.Intn(255))
			}
		case 6: // extreme values: delta wrap-around territory
			for i := 0; i < 8; i++ {
				v := uint64(0)
				switch r.Intn(3) {
				case 0:
					v = 1<<63 - uint64(r.Intn(4))
				case 1:
					v = 1<<63 + uint64(r.Intn(4))
				case 2:
					v = uint64(r.Intn(4))
				}
				binary.LittleEndian.PutUint64(b[i*8:], v)
			}
		case 7: // boundary deltas exactly at ±(2^(8w-1))
			base := r.Uint64()
			w := uint(1 + r.Intn(6))
			for i := 0; i < 8; i++ {
				edge := uint64(1) << (8*w - 1)
				switch r.Intn(4) {
				case 0:
					binary.LittleEndian.PutUint64(b[i*8:], base+edge-1)
				case 1:
					binary.LittleEndian.PutUint64(b[i*8:], base-edge)
				case 2:
					binary.LittleEndian.PutUint64(b[i*8:], base+edge) // just over
				case 3:
					binary.LittleEndian.PutUint64(b[i*8:], base)
				}
			}
		}
		want := refEncoding(b)
		if got := EncodingOf(b); got != want {
			t.Fatalf("iter %d: EncodingOf = %v, reference = %v\nblock %x", iter, got, want, b)
		}
		c := Compress(b)
		if c.Enc != want || SizeOf(b) != c.Size() {
			t.Fatalf("iter %d: Compress enc=%v size=%d, SizeOf=%d, reference=%v",
				iter, c.Enc, c.Size(), SizeOf(b), want)
		}
		got, err := Decompress(c)
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("iter %d: roundtrip failed under %v: %v", iter, c.Enc, err)
		}
		hit[want]++
	}
	// The generator must actually exercise the whole encoding set, or the
	// differential guarantee is hollow.
	for e := Encoding(0); e < numEncodings; e++ {
		if hit[e] == 0 {
			t.Errorf("randomized corpus never produced %v", e)
		}
	}
}

// TestEncodingOfDeltaWrap pins blocks whose base-8 delta v - base wraps
// int64: the wrapped delta is what the hardware's 64-bit subtractor
// produces, and the decompressor's base + delta wraps back to v. The
// OR-accumulated width probe must agree with the reference's explicit
// range checks and the block must round-trip.
func TestEncodingOfDeltaWrap(t *testing.T) {
	const lo, hi = uint64(1) << 63, uint64(1)<<63 - 1 // 0x8000…, 0x7fff…
	for _, tc := range []struct {
		name       string
		base, next uint64
		want       Encoding
	}{
		{"up by one", hi, lo, EncB8D1},                // lo - hi wraps to +1
		{"down by one", lo, hi, EncB8D1},              // hi - lo wraps to -1
		{"down by 256", lo, hi - 0xff, EncB8D2},       // wraps to -256
		{"up by 2^39", hi - (1<<39 - 1), lo, EncB8D6}, // wraps to +2^39
	} {
		b := make([]byte, BlockSize)
		for i := 0; i < BlockSize; i += 8 {
			v := tc.base
			if i/8%2 == 1 {
				v = tc.next
			}
			binary.LittleEndian.PutUint64(b[i:], v)
		}
		got, ref := EncodingOf(b), refEncoding(b)
		if got != ref || got != tc.want {
			t.Errorf("%s: EncodingOf = %v, reference = %v, want %v", tc.name, got, ref, tc.want)
		}
		out, err := Decompress(Compress(b))
		if err != nil || !bytes.Equal(out, b) {
			t.Errorf("%s: roundtrip failed: %v", tc.name, err)
		}
	}
}

// TestCompressIntoAliasesScratch pins the scratch-buffer contract: with
// adequate capacity the payload lives in the caller's buffer.
func TestCompressIntoAliasesScratch(t *testing.T) {
	scratch := make([]byte, BlockSize)
	for _, spec := range Specs() {
		b := corpusBlock(spec.Enc)
		c := CompressInto(scratch, b)
		if len(c.Data) > 0 && &c.Data[0] != &scratch[0] {
			t.Errorf("%v: payload does not alias scratch", spec.Enc)
		}
		if c.Size() != SizeOf(b) {
			t.Errorf("%v: CompressInto size %d != SizeOf %d", spec.Enc, c.Size(), SizeOf(b))
		}
		// A fresh Compress must agree bit-for-bit with the scratch variant.
		ref := Compress(b)
		if ref.Enc != c.Enc || !bytes.Equal(ref.Data, c.Data) {
			t.Errorf("%v: CompressInto payload differs from Compress", spec.Enc)
		}
	}
	// Undersized scratch must still work (by growing a private buffer).
	c := CompressInto(make([]byte, 2), corpusBlock(EncUncompressed))
	if c.Size() != BlockSize {
		t.Errorf("undersized scratch: size %d", c.Size())
	}
}

// TestDecompressIntoReusesDst pins the decompression scratch contract.
func TestDecompressIntoReusesDst(t *testing.T) {
	dst := make([]byte, BlockSize)
	for _, spec := range Specs() {
		b := corpusBlock(spec.Enc)
		c := Compress(b)
		out, err := DecompressInto(dst, c)
		if err != nil {
			t.Fatalf("%v: %v", spec.Enc, err)
		}
		if &out[0] != &dst[0] {
			t.Errorf("%v: output does not alias dst", spec.Enc)
		}
		if !bytes.Equal(out, b) {
			t.Errorf("%v: roundtrip mismatch", spec.Enc)
		}
	}
}

// Alloc-regression pins. These fail with the measured count so a regression
// is self-explaining; they are part of the tier-1 suite and run under -race.

func TestSizeOfZeroAllocs(t *testing.T) {
	blocks := [][]byte{
		corpusBlock(EncZeros), corpusBlock(EncRep8), corpusBlock(EncB8D1),
		corpusBlock(EncB2D1), corpusBlock(EncUncompressed),
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, b := range blocks {
			SizeOf(b)
		}
	}); n != 0 {
		t.Errorf("SizeOf allocates %.1f times per run, want 0", n)
	}
}

func TestCompressIntoZeroAllocs(t *testing.T) {
	scratch := make([]byte, BlockSize)
	blocks := [][]byte{
		corpusBlock(EncZeros), corpusBlock(EncRep8), corpusBlock(EncB8D1),
		corpusBlock(EncB4D2), corpusBlock(EncUncompressed),
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, b := range blocks {
			CompressInto(scratch, b)
		}
	}); n != 0 {
		t.Errorf("CompressInto with adequate scratch allocates %.1f times per run, want 0", n)
	}
}

func TestDecompressIntoZeroAllocs(t *testing.T) {
	dst := make([]byte, BlockSize)
	cs := []Compressed{
		Compress(corpusBlock(EncZeros)), Compress(corpusBlock(EncRep8)),
		Compress(corpusBlock(EncB8D3)), Compress(corpusBlock(EncUncompressed)),
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, c := range cs {
			if _, err := DecompressInto(dst, c); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("DecompressInto with adequate dst allocates %.1f times per run, want 0", n)
	}
}

func BenchmarkSizeOf(b *testing.B) {
	blk := corpusBlock(EncB8D2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SizeOf(blk)
	}
}

func BenchmarkCompressInto(b *testing.B) {
	blk := corpusBlock(EncB8D2)
	scratch := make([]byte, BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompressInto(scratch, blk)
	}
}
