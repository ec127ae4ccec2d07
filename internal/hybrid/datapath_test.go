package hybrid

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/bdi"
	"repro/internal/ecc"
	"repro/internal/nvm"
	"repro/internal/stats"
)

func freshFrame() *nvm.Frame {
	return nvm.NewFrame(nvm.EnduranceModel{Mean: 1e9, CV: 0.2}, stats.NewRNG(77), nvm.ByteDisabling)
}

func TestDataPathRoundtripClean(t *testing.T) {
	d := NewDataPath()
	f := freshFrame()
	for _, content := range [][]byte{compressibleBlock(), incompressibleBlock(), make([]byte, 64)} {
		st, err := d.WriteBlock(content, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, status, err := d.ReadBlock(st)
		if err != nil || status != ecc.OK {
			t.Fatalf("read: status=%v err=%v", status, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("roundtrip mismatch:\n in  %x\n out %x", content, got)
		}
	}
}

func TestDataPathRoundtripWithFaultyBytes(t *testing.T) {
	d := NewDataPath()
	f := freshFrame()
	// Disable a handful of bytes, as aging would.
	for _, b := range []int{2, 5, 17, 40, 65} {
		f.InjectFault(b)
	}
	content := compressibleBlock()
	st, err := d.WriteBlock(content, f, 13)
	if err != nil {
		t.Fatal(err)
	}
	// The scatter must avoid the faulty positions entirely.
	for _, b := range []int{2, 5, 17, 40, 65} {
		if st.Mask.Get(b) {
			t.Fatalf("write mask covers faulty byte %d", b)
		}
	}
	got, status, err := d.ReadBlock(st)
	if err != nil || status != ecc.OK {
		t.Fatalf("read: status=%v err=%v", status, err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("roundtrip through faulty frame mismatch")
	}
}

func TestDataPathWriteAccountsWear(t *testing.T) {
	d := NewDataPath()
	f := freshFrame()
	before := f.PhaseWritten()
	st, err := d.WriteBlock(compressibleBlock(), f, 0) // B8D1 -> 16B CB, 18B ECB
	if err != nil {
		t.Fatal(err)
	}
	if st.ECBLen != 16+nvm.MetaBytes {
		t.Fatalf("ECB length %d, want %d", st.ECBLen, 16+nvm.MetaBytes)
	}
	if f.PhaseWritten()-before != uint64(st.ECBLen) {
		t.Fatalf("wear accounted %d bytes, want %d", f.PhaseWritten()-before, st.ECBLen)
	}
	if nvm.MaskBits(st.Mask) != st.ECBLen {
		t.Fatalf("selective write touched %d bytes, want %d", nvm.MaskBits(st.Mask), st.ECBLen)
	}
}

func TestDataPathRejectsOversizedBlock(t *testing.T) {
	d := NewDataPath()
	f := freshFrame()
	for f.EffectiveCapacity() > 32 {
		f.AdvanceTo(f.NextLimit())
	}
	if f.Dead() {
		t.Skip("frame died under sampled endurance")
	}
	if _, err := d.WriteBlock(incompressibleBlock(), f, 0); err == nil {
		t.Fatal("64B block accepted by a 32B-capacity frame")
	}
}

func TestDataPathSingleBitErrorCorrected(t *testing.T) {
	d := NewDataPath()
	f := freshFrame()
	content := compressibleBlock()
	for bit := 0; bit < 18*8-1; bit += 7 {
		st, err := d.WriteBlock(content, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		st.FlipStoredBit(bit)
		got, status, err := d.ReadBlock(st)
		if err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
		if status != ecc.Corrected {
			t.Fatalf("bit %d: status %v, want Corrected", bit, status)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("bit %d: data not restored", bit)
		}
	}
}

func TestDataPathDoubleBitErrorDetected(t *testing.T) {
	d := NewDataPath()
	f := freshFrame()
	content := incompressibleBlock()
	st, err := d.WriteBlock(content, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.FlipStoredBit(3)
	st.FlipStoredBit(100)
	_, status, err := d.ReadBlock(st)
	if status != ecc.Detected || err == nil {
		t.Fatalf("double error: status=%v err=%v, want Detected", status, err)
	}
}

// Property: the full write/read data path is the identity for arbitrary
// content, counters and pre-existing fault patterns, with zero or one
// injected bit error.
func TestDataPathProperty(t *testing.T) {
	d := NewDataPath()
	f2 := func(seed uint64, counter uint8, nFaults uint8, flip uint16, doFlip bool) bool {
		r := stats.NewRNG(seed)
		f := nvm.NewFrame(nvm.EnduranceModel{Mean: 1e9, CV: 0.2}, r, nvm.ByteDisabling)
		for i := 0; i < int(nFaults%20); i++ {
			f.InjectFault(r.Intn(nvm.FrameBytes))
		}
		content := make([]byte, bdi.BlockSize)
		switch seed % 3 {
		case 0:
			for i := range content {
				content[i] = byte(r.Uint32())
			}
		case 1: // compressible
			v := r.Uint64()
			for i := 0; i < 64; i += 8 {
				for j := 0; j < 8; j++ {
					content[i+j] = byte(v >> (8 * uint(j)))
				}
			}
		case 2: // zeros
		}
		st, err := d.WriteBlock(content, f, int(counter)%nvm.FrameBytes)
		if err != nil {
			// Only acceptable when the block genuinely doesn't fit.
			return bdi.SizeOf(content) > f.EffectiveCapacity()
		}
		if doFlip {
			st.FlipStoredBit(int(flip) % st.MeaningfulBits())
		}
		got, status, err := d.ReadBlock(st)
		if err != nil {
			return false
		}
		if doFlip && status != ecc.Corrected {
			return false
		}
		return bytes.Equal(got, content)
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestDataPathSizesMatchSimulator: the ECB size the functional data path
// writes equals what the performance simulator accounts (cb + MetaBytes),
// for every encoding class.
func TestDataPathSizesMatchSimulator(t *testing.T) {
	d := NewDataPath()
	contents := map[string][]byte{
		"zeros":  make([]byte, 64),
		"hcr":    compressibleBlock(),
		"incomp": incompressibleBlock(),
	}
	for name, content := range contents {
		f := freshFrame()
		st, err := d.WriteBlock(content, f, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := bdi.SizeOf(content) + nvm.MetaBytes
		if st.ECBLen != want {
			t.Errorf("%s: data path ECB %dB, simulator accounts %dB", name, st.ECBLen, want)
		}
	}
}

func BenchmarkDataPathWrite(b *testing.B) {
	d := NewDataPath()
	f := nvm.NewFrame(nvm.EnduranceModel{Mean: 1e15, CV: 0.2}, stats.NewRNG(1), nvm.ByteDisabling)
	content := compressibleBlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.WriteBlock(content, f, i%nvm.FrameBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataPathRead(b *testing.B) {
	d := NewDataPath()
	f := nvm.NewFrame(nvm.EnduranceModel{Mean: 1e15, CV: 0.2}, stats.NewRNG(1), nvm.ByteDisabling)
	st, err := d.WriteBlock(compressibleBlock(), f, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.ReadBlock(st); err != nil {
			b.Fatal(err)
		}
	}
}
