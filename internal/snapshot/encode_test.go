package snapshot

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// TestLEBytes checks the write-side column encoding against
// encoding/binary, and the big-endian element swap against the big-endian
// encoding of the same values.
func TestLEBytes(t *testing.T) {
	u := []uint32{0, 1, 0xdeadbeef, math.MaxUint32}
	f := []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64}
	var wantU, wantUBE, wantF []byte
	for _, x := range u {
		wantU = binary.LittleEndian.AppendUint32(wantU, x)
		wantUBE = binary.BigEndian.AppendUint32(wantUBE, x)
	}
	for _, x := range f {
		wantF = binary.LittleEndian.AppendUint64(wantF, math.Float64bits(x))
	}
	if got := leBytes(u); !bytes.Equal(got, wantU) {
		t.Errorf("leBytes(uint32) = %x, want %x", got, wantU)
	}
	if got := leBytes(f); !bytes.Equal(got, wantF) {
		t.Errorf("leBytes(float64) = %x, want %x", got, wantF)
	}
	if got := leBytes([]int64(nil)); got != nil {
		t.Errorf("leBytes(nil) = %x, want nil", got)
	}
	if got := swapElems(wantU, 4); !bytes.Equal(got, wantUBE) {
		t.Errorf("swapElems = %x, want %x", got, wantUBE)
	}
}

// TestEdgeSectionPadding: edge records are written with zero padding and
// survive chunk boundaries (rows longer than, and straddling, one chunk).
func TestEdgeSectionPadding(t *testing.T) {
	rows := [][]graph.Edge{nil, make([]graph.Edge, edgeChunk+3), make([]graph.Edge, edgeChunk-1), {{To: -1, Weight: 2}}}
	var want []byte
	for _, r := range rows {
		for i := range r {
			if r[i].To == 0 {
				r[i] = graph.Edge{To: kb.EntityID(i), Weight: float64(i) / 7}
			}
			var rec [edgeSize]byte
			binary.LittleEndian.PutUint32(rec[:], uint32(int32(r[i].To)))
			binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r[i].Weight))
			want = append(want, rec[:]...)
		}
	}
	sw := &secWriter{}
	sw.addEdgeCSR(1, 2, rows)
	if sw.secs[1].size != int64(len(want)) {
		t.Fatalf("edge section declares %d bytes, want %d", sw.secs[1].size, len(want))
	}
	var got bytes.Buffer
	if err := sw.secs[1].write(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("edge section bytes differ from the record encoding")
	}
}

// TestJointDictOrder: merging two dictionaries' orders through mergeDict-
// style translation tables yields the joint dictionary's own string order,
// and tables that do not describe the union are rejected.
func TestJointDictOrder(t *testing.T) {
	s1 := []string{"m", "a", "zz", "", "b\x00", "q"}
	s2 := []string{"b", "zz", "c", "a", "b\x00", "y", "\xff"}
	joint := kb.NewInterner()
	var t1, t2 []int32
	for _, s := range s1 {
		t1 = append(t1, int32(joint.Intern(s)))
	}
	for _, s := range s2 {
		t2 = append(t2, int32(joint.Intern(s)))
	}
	d1, d2 := kb.FreezeStrings(s1, true), kb.FreezeStrings(s2, true)
	got, err := jointDictOrder(d1, d2, t1, t2, joint.Len())
	if err != nil {
		t.Fatal(err)
	}
	_, _, want := joint.Freeze().Parts()
	if !slices.Equal(got, want) {
		t.Fatalf("merged order %v, want %v", got, want)
	}

	bad := slices.Clone(t2)
	bad[2] = int32(joint.Len()) // past the joint dictionary
	if _, err := jointDictOrder(d1, d2, t1, bad, joint.Len()); err == nil {
		t.Error("out-of-range translation accepted")
	}
	bad = slices.Clone(t2)
	bad[1] = t2[2] // "zz" no longer maps to K1's slot, so it is emitted twice
	if _, err := jointDictOrder(d1, d2, t1, bad, joint.Len()); err == nil {
		t.Error("inconsistent translation accepted")
	}
	if _, err := jointDictOrder(d1, d2, t1[:2], t2, joint.Len()); err == nil {
		t.Error("short translation table accepted")
	}
}
