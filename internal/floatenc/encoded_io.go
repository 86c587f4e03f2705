package floatenc

import (
	"encoding/binary"
	"math"
)

// Binary format for an Encoded matrix:
//
//	magic   uint32 'M','H','E','0'
//	kind    uint8
//	bits    uint8
//	_pad    uint16
//	rows    uint32
//	cols    uint32
//	exp     int32
//	tableN  uint32, then tableN float32 bit patterns
//	payload uint32 length, then payload bytes
const encodedMagic uint32 = 0x4d484530 // "MHE0"

// MarshalBinary implements encoding.BinaryMarshaler.
func (e *Encoded) MarshalBinary() ([]byte, error) {
	if err := e.Scheme.Validate(); err != nil {
		return nil, err
	}
	out := make([]byte, 0, 28+4*len(e.Table)+len(e.Payload))
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], encodedMagic)
	hdr[4] = byte(e.Scheme.Kind)
	hdr[5] = byte(e.Scheme.Bits)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(e.Rows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(e.Cols))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(e.Exp))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(e.Table)))
	out = append(out, hdr[:]...)
	for _, v := range e.Table {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		out = append(out, b[:]...)
	}
	var plen [4]byte
	binary.LittleEndian.PutUint32(plen[:], uint32(len(e.Payload)))
	out = append(out, plen[:]...)
	out = append(out, e.Payload...)
	return out, nil
}
