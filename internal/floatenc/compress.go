package floatenc

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
)

// zlib helpers. The paper compresses matrices, deltas and byte planes with
// zlib level 6; these wrappers keep that policy in one place.

// DefaultZlibLevel mirrors the paper's experimental setting.
const DefaultZlibLevel = 6

// A flate compressor carries ~790 KB of state that NewWriterLevel allocates
// and zeroes, and archiving prices thousands of small planes: writers are
// pooled per level and Reset, which yields the bytes a fresh writer would.
// Readers are pooled the same way through zlib.Resetter.
var (
	zlibWriters [zlib.BestCompression - zlib.HuffmanOnly + 1]sync.Pool
	zlibReaders sync.Pool
)

// Deflate compresses data with zlib at the given level.
func Deflate(data []byte, level int) ([]byte, error) {
	if level < zlib.HuffmanOnly || level > zlib.BestCompression {
		return nil, fmt.Errorf("floatenc: zlib writer: invalid compression level %d", level)
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
// storage experiment reports.
func CompressedSize(data []byte) (int, error) {
	out, err := Deflate(data, DefaultZlibLevel)
	if err != nil {
		return 0, err
	}
	return len(out), nil
}
