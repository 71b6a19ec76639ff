// Snapshot encoder: WriteSubstrate serializes a built substrate — both KBs,
// dictionaries, columnar spans, ranks, top-neighbor rows, name blocks, the
// purged token index, and (always) the prewarmed query state — into the
// sectioned format described in format.go. The string tables are frozen
// concurrently on the substrate's query engine, and numeric columns are
// written straight from memory. Files are deterministic for a given
// substrate: section order, padding bytes and struct padding inside edge
// records (written as zero) are all pinned, whatever the engine size the
// tables were frozen on.
package snapshot

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"minoaner/internal/blocking"
	"minoaner/internal/core"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// metaV1 is the JSON payload of the meta section: everything scalar or
// irregular that does not justify a binary column.
type metaV1 struct {
	K1Name    string `json:"k1_name"`
	K2Name    string `json:"k2_name"`
	K1Triples int    `json:"k1_triples"`
	K2Triples int    `json:"k2_triples"`

	// Config is the NORMALIZED build configuration, installed verbatim on
	// load (re-normalizing would re-enable a disabled Block Purging).
	Config core.Config `json:"config"`

	NameAttrs1 []string `json:"name_attrs1,omitempty"`
	NameAttrs2 []string `json:"name_attrs2,omitempty"`

	PurgedBlocks   int   `json:"purged_blocks"`
	PurgeThreshold int64 `json:"purge_threshold"`

	Timings     core.Timings `json:"timings"`
	BuildWallNS int64        `json:"build_wall_ns"`
}

// section is one section body as the encoder lays it out: its length is
// known up front (so the header and table can be written first), and write
// streams the body from the live columns.
type section struct {
	id    uint32
	size  int64
	write func(w io.Writer) error
}

// secWriter accumulates sections in file order, then lays out the header,
// table and 8-padded section bodies.
type secWriter struct {
	secs []section
	// edgeBuf is the one chunk buffer every edge section is encoded
	// through (sections are written one at a time).
	edgeBuf []byte
}

// add appends a section whose body is data.
func (sw *secWriter) add(id uint32, data []byte) {
	sw.secs = append(sw.secs, section{id, int64(len(data)), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}})
}

func pad8(n int64) int64 { return (n + 7) &^ 7 }

func (sw *secWriter) writeTo(out io.Writer, flags uint32) error {
	count := len(sw.secs)
	tableEnd := int64(headerSize) + int64(count)*tableEntry
	head := make([]byte, tableEnd)
	copy(head, magic[:])
	binary.LittleEndian.PutUint32(head[8:], formatVersion)
	binary.LittleEndian.PutUint32(head[12:], flags)
	binary.LittleEndian.PutUint32(head[16:], uint32(count))
	off := tableEnd // headerSize and tableEntry are both multiples of 8
	for i, s := range sw.secs {
		e := head[headerSize+i*tableEntry:]
		binary.LittleEndian.PutUint32(e, s.id)
		binary.LittleEndian.PutUint64(e[8:], uint64(off))
		binary.LittleEndian.PutUint64(e[16:], uint64(s.size))
		off += pad8(s.size)
	}
	if _, err := out.Write(head); err != nil {
		return err
	}
	var zeros [8]byte
	for _, s := range sw.secs {
		if err := s.write(out); err != nil {
			return err
		}
		if p := pad8(s.size) - s.size; p > 0 {
			if _, err := out.Write(zeros[:p]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (sw *secWriter) addFrozen(base uint32, fs *kb.FrozenStrings) {
	blob, off, sorted := fs.Parts()
	sw.add(base+frozenBlob, blob)
	sw.add(base+frozenOff, leBytes(off))
	if sorted != nil {
		sw.add(base+frozenSorted, leBytes(sorted))
	}
}

// addRows appends the offset section of a ragged CSR — the element-count
// offsets of rows, computed from the row lengths — and returns the total
// element count.
func addRows[T any](sw *secWriter, offID uint32, rows [][]T) int64 {
	off := make([]int64, len(rows)+1)
	for i, r := range rows {
		off[i+1] = off[i] + int64(len(r))
	}
	sw.add(offID, leBytes(off))
	return off[len(rows)]
}

// addEntityCSR appends a ragged entity-ID CSR as its offset section and a
// flat section written row by row straight from the rows.
func (sw *secWriter) addEntityCSR(offID, flatID uint32, rows [][]kb.EntityID) {
	n := addRows(sw, offID, rows)
	sw.secs = append(sw.secs, section{flatID, 4 * n, func(w io.Writer) error {
		for _, r := range rows {
			if _, err := w.Write(leBytes(r)); err != nil {
				return err
			}
		}
		return nil
	}})
}

// addEdgeCSR appends a ragged edge CSR. Edge records carry 4 padding bytes
// after To, so they are encoded (padding written as zero) through the
// shared chunk buffer rather than viewed.
func (sw *secWriter) addEdgeCSR(offID, flatID uint32, rows [][]graph.Edge) {
	n := addRows(sw, offID, rows)
	sw.secs = append(sw.secs, section{flatID, edgeSize * n, func(w io.Writer) error {
		if sw.edgeBuf == nil {
			sw.edgeBuf = make([]byte, edgeChunk*edgeSize)
		}
		buf := sw.edgeBuf[:0]
		for _, r := range rows {
			for len(r) > 0 {
				k := min(len(r), edgeChunk-len(buf)/edgeSize)
				buf = encEdges(buf, r[:k])
				r = r[k:]
				if len(buf) == cap(buf) {
					if _, err := w.Write(buf); err != nil {
						return err
					}
					buf = buf[:0]
				}
			}
		}
		_, err := w.Write(buf)
		return err
	}})
}

func (sw *secWriter) addKB(base uint32, p kb.SnapshotParts) {
	sw.addFrozen(base+kbURIBlob, p.URIs)
	sw.add(base+kbTokenOff, leBytes(p.TokenOff))
	sw.add(base+kbTokens, leBytes(p.Tokens))
	sw.add(base+kbRelOff, leBytes(p.RelOff))
	sw.add(base+kbRelPred, leBytes(p.RelPred))
	sw.add(base+kbRelObj, leBytes(p.RelObj))
	sw.add(base+kbAttrOff, leBytes(p.AttrOff))
	sw.add(base+kbAttrName, leBytes(p.AttrName))
	sw.add(base+kbAttrVal, leBytes(p.AttrVal))
	sw.add(base+kbStmtAttrName, leBytes(p.StmtAttrName))
	blob, off, _ := p.StmtVals.Parts()
	sw.add(base+kbStmtValBlob, blob)
	sw.add(base+kbStmtValOff, leBytes(off))
	sw.add(base+kbStmtRelPred, leBytes(p.StmtRelPred))
	sw.add(base+kbStmtRelObj, leBytes(p.StmtRelObj))
}

// frozenTables are the tables WriteSubstrate sorts and materializes before
// laying out sections: each is independent of the others, so they are
// produced concurrently.
type frozenTables struct {
	qs              *core.QueryState
	kp1, kp2        kb.SnapshotParts
	dict1, dict2    *kb.FrozenStrings
	schema1         [3]*kb.FrozenStrings
	schema2         [3]*kb.FrozenStrings
	sharedDict      bool
	sharedSchema    bool
	tokenDictShared bool
}

// freezeTables runs the independent freezes — the two token dictionaries,
// the two schemas, the two KB decompositions and the query-state export —
// as tasks on the substrate's query engine, so a one-worker configuration
// stays sequential. Shared dictionaries are frozen once.
func freezeTables(sub *core.Substrate, p core.SubstrateParts) (*frozenTables, error) {
	ctx := context.TODO() // WriteSubstrate takes no context
	t := &frozenTables{
		sharedDict:      p.K2.TokenDict() == p.K1.TokenDict(),
		sharedSchema:    p.K2.Schema() == p.K1.Schema(),
		tokenDictShared: p.TokenIndex.SnapshotColumns().Dict == p.K1.TokenDict(),
	}
	freezeSchema := func(s *kb.Schema, out *[3]*kb.FrozenStrings) func() error {
		return func() error {
			out[0], out[1], out[2] = s.Freeze()
			return nil
		}
	}
	// Workers claim tasks in list order, so K2's tables go first: in the
	// paper's pairs the second KB is usually the larger.
	var tasks []func() error
	if !t.sharedSchema {
		tasks = append(tasks, freezeSchema(p.K2.Schema(), &t.schema2))
	}
	if !t.sharedDict {
		tasks = append(tasks, func() error { t.dict2 = p.K2.TokenDict().Freeze(); return nil })
	}
	tasks = append(tasks,
		func() error { t.kp2 = p.K2.SnapshotParts(); return nil },
		freezeSchema(p.K1.Schema(), &t.schema1),
		func() error { t.dict1 = p.K1.TokenDict().Freeze(); return nil },
		func() error { t.kp1 = p.K1.SnapshotParts(); return nil },
		func() error {
			qs, err := sub.ExportQueryState(ctx)
			if err != nil {
				return fmt.Errorf("snapshot: export query state: %w", err)
			}
			t.qs = qs
			return nil
		},
	)
	err := sub.QueryEngine().Chunked().ForCtx(ctx, len(tasks), func(i int) error { return tasks[i]() })
	if err != nil {
		return nil, err
	}
	if t.sharedDict {
		t.dict2 = t.dict1
	}
	return t, nil
}

// jointDictOrder derives the string order of the token index's joint
// dictionary without sorting it. The joint dictionary interned every K1
// token, then every K2 token it had not seen (blocking.mergeDict), so it is
// the union of the two KB dictionaries: its order is the linear merge of
// their orders, mapped through the translation tables t1/t2, with a token
// present in both emitted once. n is the joint dictionary's size; tables
// that do not describe such a union are reported as corrupt.
func jointDictOrder(d1, d2 *kb.FrozenStrings, t1, t2 []int32, n int) ([]uint32, error) {
	_, _, s1 := d1.Parts()
	_, _, s2 := d2.Parts()
	if len(t1) != len(s1) || len(t2) != len(s2) {
		return nil, fmt.Errorf("snapshot: token index translation tables (%d, %d) disagree with dictionaries (%d, %d)",
			len(t1), len(t2), len(s1), len(s2))
	}
	order := make([]uint32, 0, n)
	emit := func(slot int32) error {
		if slot < 0 || int(slot) >= n || len(order) == n {
			return fmt.Errorf("snapshot: token index translation tables do not describe a joint dictionary of %d tokens", n)
		}
		order = append(order, uint32(slot))
		return nil
	}
	i, j := 0, 0
	for i < len(s1) && j < len(s2) {
		a, b := s1[i], s2[j]
		var slot int32
		switch {
		case t1[a] == t2[b]:
			slot = t1[a]
			i++
			j++
		case d1.At(int(a)) < d2.At(int(b)):
			slot = t1[a]
			i++
		default:
			slot = t2[b]
			j++
		}
		if err := emit(slot); err != nil {
			return nil, err
		}
	}
	for ; i < len(s1); i++ {
		if err := emit(t1[s1[i]]); err != nil {
			return nil, err
		}
	}
	for ; j < len(s2); j++ {
		if err := emit(t2[s2[j]]); err != nil {
			return nil, err
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("snapshot: token index translation tables cover %d of %d joint tokens", len(order), n)
	}
	return order, nil
}

// WriteSubstrate serializes sub, including its prewarmed query state (the
// substrate is prewarmed first if it has not served a query yet — snapshots
// exist to make warm starts instant, so the query state always ships).
//
// The dictionaries, schemas, KB decompositions and query state are frozen
// concurrently on the substrate's query engine; the joint token
// dictionary's order is merged from the two KB dictionaries' orders rather
// than sorted again; and numeric columns are written straight from memory
// (see leBytes), so the encoder copies no column it does not have to.
func WriteSubstrate(w io.Writer, sub *core.Substrate) error {
	p := sub.Parts()
	t, err := freezeTables(sub, p)
	if err != nil {
		return err
	}
	kp1, kp2, qs := t.kp1, t.kp2, t.qs
	ix := p.TokenIndex.SnapshotColumns()

	flags := uint32(flagQueryState)
	if t.sharedDict {
		flags |= flagSharedDict
	}
	if t.sharedSchema {
		flags |= flagSharedSchema
	}
	if t.tokenDictShared {
		flags |= flagTokenDictShared
	}

	meta := metaV1{
		K1Name: kp1.Name, K2Name: kp2.Name,
		K1Triples: kp1.Triples, K2Triples: kp2.Triples,
		Config:     p.Config,
		NameAttrs1: p.NameAttrs1, NameAttrs2: p.NameAttrs2,
		PurgedBlocks: p.PurgedBlocks, PurgeThreshold: p.PurgeThreshold,
		Timings: p.Timings, BuildWallNS: int64(p.BuildWall),
	}
	metaBytes, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("snapshot: encode meta: %w", err)
	}

	sw := &secWriter{}
	sw.add(secMeta, metaBytes)

	sw.addFrozen(dict1Base, t.dict1)
	if !t.sharedDict {
		sw.addFrozen(dict2Base, t.dict2)
	}
	sw.addFrozen(schema1PredsBase, t.schema1[0])
	sw.addFrozen(schema1AttrsBase, t.schema1[1])
	sw.addFrozen(schema1ValsBase, t.schema1[2])
	if !t.sharedSchema {
		sw.addFrozen(schema2PredsBase, t.schema2[0])
		sw.addFrozen(schema2AttrsBase, t.schema2[1])
		sw.addFrozen(schema2ValsBase, t.schema2[2])
	}

	sw.addKB(kb1Base, kp1)
	sw.addKB(kb2Base, kp2)

	sw.add(secRanks1, leBytes(p.Ranks1))
	sw.add(secRanks2, leBytes(p.Ranks2))
	sw.addEntityCSR(secTop1Off, secTop1Flat, p.Top1)
	sw.addEntityCSR(secTop2Off, secTop2Flat, p.Top2)

	addNameBlocks(sw, p.NameBlocks)

	if !t.tokenDictShared {
		order, err := jointDictOrder(t.dict1, t.dict2, ix.T1, ix.T2, ix.Dict.Len())
		if err != nil {
			return err
		}
		strs := make([]string, ix.Dict.Len())
		for i := range strs {
			strs[i] = ix.Dict.TokenString(kb.TokenID(i))
		}
		blob, off, _ := kb.FreezeStrings(strs, false).Parts()
		sw.add(jointDictBase+frozenBlob, blob)
		sw.add(jointDictBase+frozenOff, leBytes(off))
		sw.add(jointDictBase+frozenSorted, leBytes(order))
		sw.add(secTokT1, leBytes(ix.T1))
		sw.add(secTokT2, leBytes(ix.T2))
	}
	// The member CSRs are stored exactly as the index holds them (i32
	// offsets + flat member arrays), so a little-endian loader installs
	// views with zero per-slot work.
	sw.add(secTokE1Off, leBytes(ix.Off1))
	sw.add(secTokE1Flat, leBytes(ix.Mem1))
	sw.add(secTokE2Off, leBytes(ix.Off2))
	sw.add(secTokE2Flat, leBytes(ix.Mem2))
	sw.add(secTokWeight, leBytes(ix.Weight))

	addQueryState(sw, qs)

	return sw.writeTo(w, flags)
}

func addNameBlocks(sw *secWriter, c *blocking.Collection) {
	keys := make([]string, len(c.Blocks))
	rows1 := make([][]kb.EntityID, len(c.Blocks))
	rows2 := make([][]kb.EntityID, len(c.Blocks))
	for i := range c.Blocks {
		keys[i] = c.Blocks[i].Key
		rows1[i] = c.Blocks[i].E1
		rows2[i] = c.Blocks[i].E2
	}
	sw.addFrozen(secNameKeys, kb.FreezeStrings(keys, false))
	sw.addEntityCSR(secNameE1Off, secNameE1Flat, rows1)
	sw.addEntityCSR(secNameE2Off, secNameE2Flat, rows2)
}

func addQueryState(sw *secWriter, qs *core.QueryState) {
	sw.addEntityCSR(secAlpha1Off, secAlpha1Flat, qs.Graph.Alpha1)
	sw.addEntityCSR(secAlpha2Off, secAlpha2Flat, qs.Graph.Alpha2)
	sw.addEdgeCSR(secBeta1Off, secBeta1Edges, qs.Graph.Beta1)
	sw.addEdgeCSR(secBeta2Off, secBeta2Edges, qs.Graph.Beta2)
	sw.addEdgeCSR(secGamma2Off, secGamma2Edges, qs.Graph.Gamma2)
	// The scope's top1 rows are the substrate's own top-neighbor rows (already
	// in secTop1*); only the merged β adjacency and the E2 reverse index are
	// scope-specific.
	_, adj1, in2, _ := qs.Scope.SnapshotParts()
	sw.addEdgeCSR(secAdj1Off, secAdj1Edges, adj1)
	sw.addEntityCSR(secIn2Off, secIn2Flat, in2)

	names := make([]string, len(qs.Names))
	n1 := make([]int32, len(qs.Names))
	n2 := make([]int32, len(qs.Names))
	e1 := make([]kb.EntityID, len(qs.Names))
	e2 := make([]kb.EntityID, len(qs.Names))
	for i, u := range qs.Names {
		names[i], n1[i], n2[i], e1[i], e2[i] = u.Name, u.N1, u.N2, u.E1, u.E2
	}
	sw.addFrozen(secNamesText, kb.FreezeStrings(names, false))
	sw.add(secNamesN1, leBytes(n1))
	sw.add(secNamesN2, leBytes(n2))
	sw.add(secNamesE1, leBytes(e1))
	sw.add(secNamesE2, leBytes(e2))
}

// WriteSubstrateFile writes the snapshot to path atomically (temp file in the
// same directory, then rename).
func WriteSubstrateFile(path string, sub *core.Substrate) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := WriteSubstrate(bw, sub); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
