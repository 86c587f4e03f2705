package floatenc

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// storedBound is the length of data of n bytes as zlib stored blocks of at
// most 16384 bytes: header, 5 bytes per block, empty final block, Adler-32.
func storedBound(n int) int {
	return n + 5*((n+storedBlock-1)/storedBlock) + 11
}

// freshDeflate is the reference Deflate is held to: a new zlib writer.
func freshDeflate(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkDeflated asserts the contracts every Deflate output keeps: both
// Inflate and the standard library's reader give back data, and it is no
// longer than data's stored form.
func checkDeflated(t testing.TB, z, data []byte) {
	t.Helper()
	if got := len(z); got > storedBound(len(data)) {
		t.Fatalf("%d bytes compress to %d, more than the stored bound %d", len(data), got, storedBound(len(data)))
	}
	back, err := Inflate(z, len(data))
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("Inflate does not give back the input: %v", err)
	}
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatalf("zlib.NewReader: %v", err)
	}
	if back, err = io.ReadAll(zr); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("zlib.NewReader does not give back the input: %v", err)
	}
}

// Every level round-trips every input shape through both decoders within the
// stored bound, and random input of at most 16 KiB — the planes the stored
// shortcut writes — comes out as the bytes a fresh zlib writer produces.
func TestDeflateShapesAndLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := map[string]func(n int) []byte{
		"random": func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		},
		"constant": func(n int) []byte { return bytes.Repeat([]byte{0x5a}, n) },
		"low-entropy": func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(4))
			}
			return b
		},
		"half-random": func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b[:n/2])
			return b
		},
	}
	for _, n := range []int{0, 1, 80, 16383, 16384, 16385, 65535, 65536, 200000} {
		for name, shape := range shapes {
			data := shape(n)
			for level := zlib.HuffmanOnly; level <= zlib.BestCompression; level++ {
				t.Run(fmt.Sprintf("%s/%d/level%d", name, n, level), func(t *testing.T) {
					z, err := Deflate(data, level)
					if err != nil {
						t.Fatal(err)
					}
					checkDeflated(t, z, data)
					if name != "random" {
						return
					}
					if n <= storedBlock && !bytes.Equal(z, freshDeflate(t, data, level)) {
						t.Fatal("output differs from a fresh zlib writer's")
					}
					// Level 0 cuts 64 KiB blocks; a one-byte last block is
					// cheaper as a fixed-code block, so the compressor runs.
					if level != zlib.NoCompression && n%storedBlock != 1 && len(z) != storedBound(n) {
						t.Fatalf("random input took %d bytes, not the stored form's %d", len(z), storedBound(n))
					}
				})
			}
		}
	}
}
