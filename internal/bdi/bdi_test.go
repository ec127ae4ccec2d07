package bdi

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func block64(fill func(i int) byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = fill(i)
	}
	return b
}

func TestZerosBlock(t *testing.T) {
	c := Compress(make([]byte, BlockSize))
	if c.Enc != EncZeros || c.Size() != 1 {
		t.Fatalf("zeros block: enc=%v size=%d", c.Enc, c.Size())
	}
}

func TestRep8Block(t *testing.T) {
	b := make([]byte, BlockSize)
	for i := 0; i < BlockSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], 0xDEADBEEFCAFEBABE)
	}
	c := Compress(b)
	if c.Enc != EncRep8 || c.Size() != 8 {
		t.Fatalf("rep8 block: enc=%v size=%d", c.Enc, c.Size())
	}
}

func TestB8D1Block(t *testing.T) {
	b := make([]byte, BlockSize)
	base := uint64(1 << 40)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i*7))
	}
	c := Compress(b)
	if c.Enc != EncB8D1 {
		t.Fatalf("enc = %v, want B8D1", c.Enc)
	}
	if c.Size() != 16 {
		t.Fatalf("size = %d, want 16", c.Size())
	}
}

func TestB8D1NegativeDeltas(t *testing.T) {
	b := make([]byte, BlockSize)
	base := uint64(1 << 40)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base-uint64(i*15))
	}
	c := Compress(b)
	if c.Enc != EncB8D1 {
		t.Fatalf("enc = %v, want B8D1 (negative deltas)", c.Enc)
	}
	roundtrip(t, b)
}

func TestB4D1Block(t *testing.T) {
	b := make([]byte, BlockSize)
	base := uint32(0x10000000)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], base+uint32(i))
	}
	c := Compress(b)
	if c.Enc != EncB4D1 || c.Size() != 20 {
		t.Fatalf("enc=%v size=%d, want B4D1/20", c.Enc, c.Size())
	}
}

func TestB2D1Block(t *testing.T) {
	b := make([]byte, BlockSize)
	base := uint16(0x4000)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint16(b[i*2:], base+uint16(i%100))
	}
	c := Compress(b)
	// B2D1 (34) may lose to a smaller base-8/base-4 encoding only if those
	// cover the block; with varying low bytes across 8-byte words they do not.
	if c.Enc != EncB2D1 {
		t.Fatalf("enc=%v, want B2D1", c.Enc)
	}
	roundtrip(t, b)
}

func TestIncompressibleBlock(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := make([]byte, BlockSize)
	r.Read(b)
	c := Compress(b)
	if c.Enc != EncUncompressed || c.Size() != 64 {
		t.Fatalf("random block compressed to %v/%d", c.Enc, c.Size())
	}
	roundtrip(t, b)
}

func TestLCREncodingsReachable(t *testing.T) {
	// Block of 8-byte values with ~28-bit deltas: needs 4-byte deltas (B8D4).
	b := make([]byte, BlockSize)
	base := uint64(1 << 50)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i)<<27)
	}
	c := Compress(b)
	if c.Enc != EncB8D4 {
		t.Fatalf("enc = %v, want B8D4", c.Enc)
	}
	if !c.Enc.IsLCR() {
		t.Error("B8D4 should be LCR")
	}
	roundtrip(t, b)
}

func TestB8D6Reachable(t *testing.T) {
	b := make([]byte, BlockSize)
	base := uint64(1 << 60)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i)<<43)
	}
	c := Compress(b)
	if c.Enc != EncB8D6 {
		t.Fatalf("enc = %v, want B8D6", c.Enc)
	}
	roundtrip(t, b)
}

func roundtrip(t *testing.T, b []byte) {
	t.Helper()
	c := Compress(b)
	got, err := Decompress(c)
	if err != nil {
		t.Fatalf("decompress(%v): %v", c.Enc, err)
	}
	if !bytes.Equal(got, b) {
		t.Fatalf("roundtrip mismatch under %v:\n in  %x\n out %x", c.Enc, b, got)
	}
}

// TestRoundtripProperty: compress∘decompress is the identity for arbitrary
// blocks, including adversarial ones near delta-width boundaries.
func TestRoundtripProperty(t *testing.T) {
	f := func(seed int64, kind uint8) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, BlockSize)
		switch kind % 6 {
		case 0: // random
			r.Read(b)
		case 1: // base-8 small deltas
			base := r.Uint64()
			for i := 0; i < 8; i++ {
				binary.LittleEndian.PutUint64(b[i*8:], base+uint64(r.Intn(256))-128)
			}
		case 2: // base-4
			base := r.Uint32()
			for i := 0; i < 16; i++ {
				binary.LittleEndian.PutUint32(b[i*4:], base+uint32(r.Intn(65536)))
			}
		case 3: // base-2
			base := uint16(r.Uint32())
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint16(b[i*2:], base+uint16(r.Intn(64)))
			}
		case 4: // sparse zeros
			for i := 0; i < 4; i++ {
				b[r.Intn(BlockSize)] = byte(r.Intn(256))
			}
		case 5: // wide base-8 deltas (LCR territory)
			base := r.Uint64()
			for i := 0; i < 8; i++ {
				binary.LittleEndian.PutUint64(b[i*8:], base+uint64(r.Int63n(1<<40)))
			}
		}
		c := Compress(b)
		got, err := Decompress(c)
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressPicksSmallest: no other encoding that covers the block is
// smaller than the one Compress chose.
func TestCompressPicksSmallest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, BlockSize)
		base := r.Uint64()
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(b[i*8:], base+uint64(r.Int63n(1<<20)))
		}
		chosen := Compress(b)
		for _, enc := range candidateOrder {
			if refCovers(b, enc) {
				if enc.Size() < chosen.Size() {
					return false
				}
				break // candidateOrder is sorted by size
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecsTableMatchesPaper(t *testing.T) {
	sizes := map[Encoding]int{
		EncZeros: 1, EncRep8: 8, EncB8D1: 16, EncB4D1: 20, EncB8D2: 24,
		EncB8D3: 32, EncB2D1: 34, EncB4D2: 36, EncB8D4: 40, EncB8D5: 48,
		EncB4D3: 52, EncB8D6: 56, EncUncompressed: 64,
	}
	for enc, want := range sizes {
		if got := enc.Size(); got != want {
			t.Errorf("%v size = %d, want %d", enc, got, want)
		}
	}
	if len(Specs()) != int(numEncodings) {
		t.Errorf("Specs() has %d entries, want %d", len(Specs()), numEncodings)
	}
}

func TestHCRLCRBoundary(t *testing.T) {
	for e := Encoding(0); e < numEncodings; e++ {
		switch {
		case e == EncUncompressed:
			if e.IsHCR() || e.IsLCR() {
				t.Errorf("%v should be neither HCR nor LCR", e)
			}
			if ClassOf(e) != ClassIncompressible {
				t.Errorf("%v class = %v", e, ClassOf(e))
			}
		case e.Size() <= HCRLimit:
			if !e.IsHCR() || e.IsLCR() || ClassOf(e) != ClassHCR {
				t.Errorf("%v (size %d) misclassified", e, e.Size())
			}
		default:
			if e.IsHCR() || !e.IsLCR() || ClassOf(e) != ClassLCR {
				t.Errorf("%v (size %d) misclassified", e, e.Size())
			}
		}
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := Decompress(Compressed{EncB8D1, make([]byte, 5)}); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := Decompress(Compressed{Encoding(200), make([]byte, 64)}); err == nil {
		t.Error("invalid encoding accepted")
	}
}

func TestCompressPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compress on short block did not panic")
		}
	}()
	Compress(make([]byte, 32))
}

func TestSizeOfMatchesCompress(t *testing.T) {
	b := block64(func(i int) byte { return byte(i) })
	if SizeOf(b) != Compress(b).Size() {
		t.Error("SizeOf disagrees with Compress")
	}
}

func TestClassString(t *testing.T) {
	if ClassHCR.String() != "HCR" || ClassLCR.String() != "LCR" ||
		ClassIncompressible.String() != "incompressible" {
		t.Error("class names wrong")
	}
	if Class(9).String() == "" {
		t.Error("unknown class should still render")
	}
}

func TestEncodingString(t *testing.T) {
	if EncB8D1.String() != "B8D1" {
		t.Errorf("B8D1 renders as %q", EncB8D1.String())
	}
	if Encoding(99).String() != "Encoding(99)" {
		t.Errorf("invalid encoding renders as %q", Encoding(99).String())
	}
}

func BenchmarkCompressCompressible(b *testing.B) {
	blk := make([]byte, BlockSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(blk[i*8:], 1<<40+uint64(i*3))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(blk)
	}
}

func BenchmarkCompressIncompressible(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	blk := make([]byte, BlockSize)
	r.Read(blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(blk)
	}
}

func BenchmarkDecompress(b *testing.B) {
	blk := make([]byte, BlockSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(blk[i*8:], 1<<40+uint64(i*3))
	}
	c := Compress(blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(c); err != nil {
			b.Fatal(err)
		}
	}
}
