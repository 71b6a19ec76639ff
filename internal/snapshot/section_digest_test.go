package snapshot

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
)

// sectionDigestsPath pins the encoder's output byte for byte: one sha256
// per fixture over the header flags and every section except meta (which
// carries per-build timings), in table order, each hashed as id:len:bytes.
// Any change to section order, contents or padding-relevant lengths moves a
// digest, so an encoder optimization must pass against the file as
// committed.
//
// Regenerate (only when the file format intentionally changes) with:
//
//	MINOANER_UPDATE_DIGESTS=1 go test ./internal/snapshot -run TestSectionDigests
const sectionDigestsPath = "testdata/section_digests.json"

type sectionDigestCase struct {
	Fixture  string `json:"fixture"`
	Flags    uint32 `json:"flags"`
	Sections int    `json:"sections"`
	SHA256   string `json:"sha256"`
}

// sectionDigest hashes a snapshot image's flags and every non-meta section
// in table order.
func sectionDigest(t *testing.T, data []byte) sectionDigestCase {
	t.Helper()
	h, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	fmt.Fprintf(sum, "flags:%d\n", h.flags)
	count := int(binary.LittleEndian.Uint32(data[16:]))
	hashed := 0
	for i := 0; i < count; i++ {
		entry := data[headerSize+i*tableEntry:]
		id := binary.LittleEndian.Uint32(entry)
		if id == secMeta {
			continue
		}
		body := h.sections[id]
		fmt.Fprintf(sum, "%d:%d:", id, len(body))
		sum.Write(body)
		hashed++
	}
	return sectionDigestCase{Flags: h.flags, Sections: hashed, SHA256: hex.EncodeToString(sum.Sum(nil))}
}

// digestFixtures builds the pinned fixtures' substrates at the given worker
// count:
//   - restaurant: the datagen pair, whose two KBs share one token dictionary
//     and schema (the token index's slot space is K1's dictionary);
//   - bbc-disjoint: a small BBCmusic pair serialized to N-Triples and parsed
//     back by two separate kb.LoadNTriples calls, so the KBs own disjoint
//     dictionaries and schemas and the token index carries its own joint
//     dictionary — the shape minoanerd and perfbench build.
func digestFixtures(t *testing.T, workers int) map[string]*core.Substrate {
	t.Helper()
	cfg := core.Config{Workers: workers}
	build := func(k1, k2 *kb.KB) *core.Substrate {
		sub, err := core.BuildSubstrate(context.Background(), k1, k2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	out := map[string]*core.Substrate{}
	rest, err := datagen.Generate(datagen.Scale(datagen.Restaurant(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	out["restaurant"] = build(rest.K1, rest.K2)

	bbc, err := datagen.Generate(datagen.Scale(datagen.BBCMusicDBpedia(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	reparse := func(name string, k *kb.KB) *kb.KB {
		var buf bytes.Buffer
		if err := kb.WriteNTriples(&buf, k); err != nil {
			t.Fatal(err)
		}
		parsed, _, err := kb.LoadNTriples(name, &buf, false)
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}
	out["bbc-disjoint"] = build(reparse("e1", bbc.K1), reparse("e2", bbc.K2))
	return out
}

// TestSectionDigests checks the encoder against the committed digests, on a
// one-worker and a multi-worker engine: the output must not depend on how
// the write is scheduled.
func TestSectionDigests(t *testing.T) {
	if os.Getenv("MINOANER_UPDATE_DIGESTS") != "" {
		updateSectionDigests(t)
		return
	}
	data, err := os.ReadFile(sectionDigestsPath)
	if err != nil {
		t.Fatalf("reading section digests (regenerate with MINOANER_UPDATE_DIGESTS=1): %v", err)
	}
	var want []sectionDigestCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("section digest fixture is empty")
	}
	for _, workers := range []int{1, 4} {
		subs := digestFixtures(t, workers)
		for _, w := range want {
			sub, ok := subs[w.Fixture]
			if !ok {
				t.Fatalf("unknown fixture %q", w.Fixture)
			}
			data := snapshotBytes(t, sub)
			got := sectionDigest(t, data)
			got.Fixture = w.Fixture
			if got != w {
				t.Errorf("workers=%d: %+v differs from pinned %+v", workers, got, w)
			}
			// A substrate loaded from the file writes the same sections
			// again: its dictionaries are frozen tables and its joint
			// token dictionary comes from the file, not from a build.
			loaded, err := ReadSubstrate(data)
			if err != nil {
				t.Fatal(err)
			}
			again := sectionDigest(t, snapshotBytes(t, loaded.Substrate()))
			again.Fixture = w.Fixture
			if again != w {
				t.Errorf("workers=%d: rewritten snapshot %+v differs from pinned %+v", workers, again, w)
			}
		}
	}
}

func updateSectionDigests(t *testing.T) {
	t.Helper()
	subs := digestFixtures(t, 1)
	var cases []sectionDigestCase
	for _, name := range []string{"restaurant", "bbc-disjoint"} {
		c := sectionDigest(t, snapshotBytes(t, subs[name]))
		c.Fixture = name
		cases = append(cases, c)
	}
	data, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sectionDigestsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %d section digests to %s\n", len(cases), sectionDigestsPath)
}
