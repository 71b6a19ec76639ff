// Typed section codecs: the little-endian encoding of the numeric column
// types the format stores, and the matching views. On a little-endian host
// the write side is copy-free — a numeric section is a byte view of the
// live column (leBytes) — except for edge records, whose struct padding is
// written as zero through a chunk buffer. The read side is a zero-copy
// reinterpretation of the section bytes (the mmap fast path) or an explicit
// element-by-element decode (the portable / cross-endian path). Zero-copy
// reads are only taken when the host is little-endian and the section base
// is 8-byte aligned, which parseHeader guarantees relative to the image
// start.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// Compile-time layout assertions behind the zero-copy reinterpretation of
// []graph.Edge: 16-byte records with the weight at offset 8. If the Edge
// struct ever changes shape, these fail to compile instead of corrupting
// loads.
var (
	_ [16]struct{} = [unsafe.Sizeof(graph.Edge{})]struct{}{}
	_ [8]struct{}  = [unsafe.Offsetof(graph.Edge{}.Weight)]struct{}{}
	_ [4]struct{}  = [unsafe.Sizeof(kb.EntityID(0))]struct{}{}
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian (the zero-copy precondition).
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// column is the set of fixed-size element types the format stores as
// little-endian arrays.
type column interface {
	~uint32 | ~int32 | ~int64 | ~float64
}

// leBytes returns the little-endian encoding of v. On a little-endian host
// that is v's own memory, so the result is a zero-copy byte view of the
// live column (the write-side mirror of the view* loaders); the caller must
// only read it while v is alive and unchanged. Big-endian hosts get an
// encoded copy, reversing each element's bytes.
func leBytes[T column](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(v[0]))
	b := unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size)
	if hostLittleEndian() {
		return b
	}
	return swapElems(b, size)
}

// swapElems returns a copy of b with the bytes of every size-byte element
// reversed (the native-to-little-endian step on a big-endian host).
func swapElems(b []byte, size int) []byte {
	out := make([]byte, len(b))
	for i := 0; i < len(b); i += size {
		for k := 0; k < size; k++ {
			out[i+k] = b[i+size-1-k]
		}
	}
	return out
}

// edgeSize is the on-disk size of one edge record, and edgeChunk the number
// of records the encoder buffers per write.
const (
	edgeSize  = 16
	edgeChunk = 4096
)

// encEdges appends 16-byte records {to int32, pad uint32(0), weight float64
// bits} to dst — the in-memory little-endian layout of graph.Edge, with the
// padding written as zero for deterministic files (a byte view would expose
// whatever the padding holds).
func encEdges(dst []byte, v []graph.Edge) []byte {
	for _, e := range v {
		var rec [edgeSize]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(int32(e.To)))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.Weight))
		dst = append(dst, rec[:]...)
	}
	return dst
}

// The view* functions turn one section's bytes into a typed slice. In
// zero-copy mode the returned slice aliases the section (and therefore the
// mapping); in copy mode elements are decoded into fresh memory.

func viewU32s[T ~uint32](b []byte, copyMode bool, what string) ([]T, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 4)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func viewI32s[T ~int32](b []byte, copyMode bool, what string) ([]T, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 4)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(int32(binary.LittleEndian.Uint32(b[i*4:])))
	}
	return out, nil
}

func viewI64s(b []byte, copyMode bool, what string) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 8)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func viewF64s(b []byte, copyMode bool, what string) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 8)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func viewEdges(b []byte, copyMode bool, what string) ([]graph.Edge, error) {
	if len(b)%16 != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes (want multiple of 16)", ErrCorrupt, what, len(b))
	}
	n := len(b) / 16
	if n == 0 {
		return nil, nil
	}
	if !copyMode {
		return unsafe.Slice((*graph.Edge)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.Edge{
			To:     kb.EntityID(int32(binary.LittleEndian.Uint32(b[i*16:]))),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:])),
		}
	}
	return out, nil
}

// nested rebuilds the ragged view over a flat array: row i is
// flat[off[i]:off[i+1]]. Rows alias flat (and therefore the mapping, in
// zero-copy mode); the offset table is validated so corrupt input fails
// cleanly instead of panicking downstream.
func nested[T any](off []int64, flat []T, what string) ([][]T, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("%w: %s: empty offset table", ErrCorrupt, what)
	}
	n := len(off) - 1
	if off[0] != 0 || off[n] != int64(len(flat)) {
		return nil, fmt.Errorf("%w: %s offsets [%d..%d] do not cover %d elements", ErrCorrupt, what, off[0], off[n], len(flat))
	}
	out := make([][]T, n)
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return nil, fmt.Errorf("%w: %s offsets decrease at %d", ErrCorrupt, what, i)
		}
		out[i] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return out, nil
}

// nestedSection reads an (offset, flat) section pair of int32-kind elements
// into its ragged view.
func nestedSection[T ~int32](h *header, copyMode bool, offID, flatID uint32, what string) ([][]T, error) {
	ob, err := h.section(offID)
	if err != nil {
		return nil, err
	}
	fb, err := h.section(flatID)
	if err != nil {
		return nil, err
	}
	off, err := viewI64s(ob, copyMode, what+" offsets")
	if err != nil {
		return nil, err
	}
	flat, err := viewI32s[T](fb, copyMode, what)
	if err != nil {
		return nil, err
	}
	return nested(off, flat, what)
}

// nestedEdgeSection reads an (offset, edges) section pair into its ragged view.
func nestedEdgeSection(h *header, copyMode bool, offID, flatID uint32, what string) ([][]graph.Edge, error) {
	ob, err := h.section(offID)
	if err != nil {
		return nil, err
	}
	fb, err := h.section(flatID)
	if err != nil {
		return nil, err
	}
	off, err := viewI64s(ob, copyMode, what+" offsets")
	if err != nil {
		return nil, err
	}
	flat, err := viewEdges(fb, copyMode, what)
	if err != nil {
		return nil, err
	}
	return nested(off, flat, what)
}

// frozenSection reads a frozen-string trio (blob, offsets, optional sorted
// permutation) into a kb.FrozenStrings. The blob always aliases the image.
func frozenSection(h *header, copyMode bool, base uint32, what string) (*kb.FrozenStrings, error) {
	blob, err := h.section(base + frozenBlob)
	if err != nil {
		return nil, err
	}
	ob, err := h.section(base + frozenOff)
	if err != nil {
		return nil, err
	}
	off, err := viewI64s(ob, copyMode, what+" offsets")
	if err != nil {
		return nil, err
	}
	var sorted []uint32
	if sb, ok := h.optional(base + frozenSorted); ok {
		if sorted, err = viewU32s[uint32](sb, copyMode, what+" sorted"); err != nil {
			return nil, err
		}
	}
	fs, err := kb.NewFrozenStrings(blob, off, sorted)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
	return fs, nil
}
