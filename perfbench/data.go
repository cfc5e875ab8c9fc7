package main

import "encoding/binary"

// fill writes a deterministic pseudo-random byte stream derived from
// key into b (splitmix64), so object contents can be regenerated for
// verification instead of kept.
func fill(b []byte, key uint64) {
	x := key
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], next())
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], next())
		copy(b[i:], tail[:])
	}
}

// bytesOf returns n fresh bytes of the stream for key.
func bytesOf(n int, key uint64) []byte {
	b := make([]byte, n)
	fill(b, key)
	return b
}
