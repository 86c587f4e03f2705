package floatenc

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"io"
	"math"
	"sync"
)

// zlib helpers. The paper compresses matrices, deltas and byte planes with
// zlib level 6; these wrappers take any level, and every stream they write
// is one Inflate reads.

// DefaultZlibLevel mirrors the paper's experimental setting. The experiments
// keep it as their size metric (CompressedSize); PAS archive chunks are coded
// at a level chosen per plane class instead (pas.planeLevel).
const DefaultZlibLevel = 6

// A flate compressor carries ~790 KB of state that NewWriterLevel allocates
// and zeroes, and archiving prices thousands of small planes: writers are
// pooled per level and Reset, which yields the bytes a fresh writer would.
// Readers are pooled the same way through zlib.Resetter.
var (
	zlibWriters [zlib.BestCompression - zlib.HuffmanOnly + 1]sync.Pool
	zlibReaders sync.Pool
)

// storedBlock is where compress/flate ends a block at levels 2-9, so also
// the largest stored block the shortcut in Deflate writes.
const storedBlock = 16384

// tableBitsPerSymbol is the share of a dynamic Huffman header a literal-only
// block pays per distinct byte value, in the lower bound of incompressible.
const tableBitsPerSymbol = 3

// Deflate compresses data with zlib at the given level. Input no Huffman
// block could shrink — low-order byte planes are close to random — is
// written as zlib stored blocks without running the compressor: the header
// compress/zlib writes for the level, non-final stored blocks of at most
// 16384 bytes, an empty final block and the Adler-32. For input of at most
// 16 KiB at any level but 0 that is the stream zlib.NewWriterLevel writes
// when it gives up on the input; longer input inflates to the same bytes
// but may be cut into blocks differently. The output is never longer than
// the stored form, n + 5·⌈n/16384⌉ + 11 bytes.
func Deflate(data []byte, level int) ([]byte, error) {
	if level < zlib.HuffmanOnly || level > zlib.BestCompression {
		return nil, fmt.Errorf("floatenc: zlib writer: invalid compression level %d", level)
	}
	if level != zlib.NoCompression && incompressible(data) {
		return stored(data, level), nil
	}
	var buf bytes.Buffer
	pool := &zlibWriters[level-zlib.HuffmanOnly]
	zw, ok := pool.Get().(*zlib.Writer)
	var err error
	if !ok {
		zw, err = zlib.NewWriterLevel(nil, level)
	}
	if err == nil {
		zw.Reset(&buf)
		if _, err = zw.Write(data); err == nil {
			err = zw.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("floatenc: zlib deflate: %w", err) // the failed writer is not pooled
	}
	pool.Put(zw)
	return buf.Bytes(), nil
}

// incompressible reports whether, for every 16 KiB block of data, storing
// it is smaller than the smallest literal-only deflate block it could
// become, in compress/flate's accounting. The dynamic bound is the block's
// Shannon bits plus tableBitsPerSymbol per distinct byte value; the
// fixed-code size is exact.
func incompressible(data []byte) bool {
	for len(data) > 0 {
		block := data[:min(len(data), storedBlock)]
		data = data[len(block):]
		// Four interleaved histograms: runs of one byte value, which the high
		// planes are full of, would otherwise serialize on one counter.
		var hist [4][256]int32
		i := 0
		for ; i+4 <= len(block); i += 4 {
			hist[0][block[i]]++
			hist[1][block[i+1]]++
			hist[2][block[i+2]]++
			hist[3][block[i+3]]++
		}
		for ; i < len(block); i++ {
			hist[0][block[i]]++
		}
		n := float64(len(block))
		dynamic := 0.0
		fixed := 3 + 8*len(block) + 7 + 5 // header, 8-bit literals, end of block, the offset code flate counts
		for sym := range 256 {
			c := int(hist[0][sym] + hist[1][sym] + hist[2][sym] + hist[3][sym])
			if c == 0 {
				continue
			}
			dynamic += float64(c)*math.Log2(n/float64(c)) + tableBitsPerSymbol
			if sym >= 144 {
				fixed += c // literals 144-255 take 9 bits
			}
		}
		// compress/flate stores a block only when that is strictly smaller.
		storedBits := 8 * (len(block) + 5)
		if dynamic <= float64(storedBits) || fixed <= storedBits {
			return false
		}
	}
	return true
}

// stored returns data as the zlib stream of stored blocks Deflate documents.
func stored(data []byte, level int) []byte {
	blocks := (len(data) + storedBlock - 1) / storedBlock
	out := make([]byte, 2, 2+len(data)+5*blocks+5+4)
	// compress/zlib's header: deflate with a 32 KiB window, then FLEVEL and
	// the check bits that make the pair a multiple of 31.
	out[0] = 0x78
	switch {
	case level == zlib.DefaultCompression || level == 6:
		out[1] = 2 << 6
	case level >= 7:
		out[1] = 3 << 6
	case level >= 2:
		out[1] = 1 << 6
	}
	out[1] += uint8(31 - binary.BigEndian.Uint16(out)%31)
	for rest := data; len(rest) > 0; {
		n := min(len(rest), storedBlock)
		out = append(out, 0, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		out = append(out, rest[:n]...)
		rest = rest[n:]
	}
	out = append(out, 1, 0, 0, 0xff, 0xff)
	return binary.BigEndian.AppendUint32(out, adler32.Checksum(data))
}

// Inflate decompresses zlib data produced by Deflate into exactly size
// bytes, the only allocation it makes for output: a stream that ends short
// of size or runs past it is an error, so untrusted data cannot expand
// beyond what its reader declared.
func Inflate(data []byte, size int) ([]byte, error) {
	src := bytes.NewReader(data)
	zr, ok := zlibReaders.Get().(io.ReadCloser)
	var err error
	if ok {
		err = zr.(zlib.Resetter).Reset(src, nil)
	} else {
		zr, err = zlib.NewReader(src)
	}
	if err != nil {
		return nil, fmt.Errorf("floatenc: zlib reader: %w", err)
	}
	out := make([]byte, size)
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("floatenc: zlib inflate: stream ends short of %d bytes: %w", size, err)
	}
	// The stream must end here; reading its end also verifies the checksum.
	if n, err := io.ReadFull(zr, make([]byte, 1)); n != 0 {
		return nil, fmt.Errorf("floatenc: zlib inflate: stream runs past %d bytes", size)
	} else if err != io.EOF {
		return nil, fmt.Errorf("floatenc: zlib inflate: %w", err)
	}
	zlibReaders.Put(zr)
	return out, nil
}

// CompressedSize returns the zlib level-6 size of data, the metric every
// storage experiment reports: the paper's setting, kept so the experiments
// stay comparable with it. PAS prices and stores archive chunks with the
// coder of each plane's class, not with this.
func CompressedSize(data []byte) (int, error) {
	out, err := Deflate(data, DefaultZlibLevel)
	if err != nil {
		return 0, err
	}
	return len(out), nil
}
