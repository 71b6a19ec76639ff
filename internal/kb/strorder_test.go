package kb

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// oracleOrder is the reference the kernel must reproduce: the index
// permutation sorted by strings.Compare.
func oracleOrder(strs []string) []uint32 {
	order := make([]uint32, len(strs))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(strs[a], strs[b]) })
	return order
}

// checkOrder compares StringOrder against the oracle. Distinct tables must
// yield exactly the oracle's (unique) permutation; tables with duplicates
// must yield some permutation whose strings are in order.
func checkOrder(t *testing.T, strs []string) {
	t.Helper()
	got := StringOrder(strs)
	if len(got) != len(strs) {
		t.Fatalf("order has %d entries for %d strings", len(got), len(strs))
	}
	seen := make([]bool, len(strs))
	for _, idx := range got {
		if int(idx) >= len(strs) || seen[idx] {
			t.Fatalf("order is not a permutation: entry %d", idx)
		}
		seen[idx] = true
	}
	for i := 1; i < len(got); i++ {
		if strs[got[i-1]] > strs[got[i]] {
			t.Fatalf("position %d: %q sorts after %q", i, strs[got[i-1]], strs[got[i]])
		}
	}
	if distinct(strs) {
		if want := oracleOrder(strs); !slices.Equal(got, want) {
			t.Fatalf("order of %d distinct strings differs from the strings.Compare oracle", len(strs))
		}
	}
}

func distinct(strs []string) bool {
	seen := make(map[string]bool, len(strs))
	for _, s := range strs {
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// dedup drops repeated strings, keeping first occurrences in input order.
func dedup(strs []string) []string {
	seen := make(map[string]bool, len(strs))
	out := strs[:0:0]
	for _, s := range strs {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// adversarialTable draws n distinct strings built to hit the kernel's edge
// cases: a shared prefix of at least 16 bytes on most strings, NUL bytes
// (including strings that differ only by trailing NULs), the empty string,
// lengths at exact multiples of 8, and bytes at or above 0x80.
func adversarialTable(rng *rand.Rand, n int) []string {
	alphabet := []byte{0x00, 0x01, 'a', 'b', 'z', 0x7f, 0x80, 0xc3, 0xff}
	prefixes := []string{"", "http://example.org/resource/", "0123456789abcdef", "\x00\x00\x00\x00\x00\x00\x00\x00"}
	strs := []string{""}
	seen := map[string]bool{"": true}
	for len(strs) < n {
		var b []byte
		b = append(b, prefixes[rng.Intn(len(prefixes))]...)
		switch rng.Intn(4) {
		case 0: // an exact multiple of 8 bytes
			for l := 8 * (1 + rng.Intn(4)); len(b)%8 != 0 || len(b) < l; {
				b = append(b, alphabet[rng.Intn(len(alphabet))])
			}
		case 1: // trailing NULs on a short stem
			b = append(b, alphabet[rng.Intn(len(alphabet))])
			for k := rng.Intn(10); k > 0; k-- {
				b = append(b, 0)
			}
		case 2: // a decimal ID, the shape of URIs and tokens
			b = strconv.AppendInt(b, int64(rng.Intn(4*n)), 10)
		default:
			for k := rng.Intn(20); k > 0; k-- {
				b = append(b, alphabet[rng.Intn(len(alphabet))])
			}
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			strs = append(strs, s)
		}
	}
	strs = strs[:n]
	rng.Shuffle(len(strs), func(i, j int) { strs[i], strs[j] = strs[j], strs[i] })
	return strs
}

// TestStringOrderOracle checks the kernel against strings.Compare on
// adversarial tables below, at and above both of its size cutoffs.
func TestStringOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 3, smallGroup, smallGroup + 1, radixGroup - 1, radixGroup, radixGroup + 1, 5000}
	for _, n := range sizes {
		for rep := 0; rep < 5; rep++ {
			t.Run(fmt.Sprintf("n=%d/rep=%d", n, rep), func(t *testing.T) {
				checkOrder(t, adversarialTable(rng, n))
			})
		}
	}
}

// TestStringOrderEdgeCases pins the cases where a prefix digit alone would
// tie: strings that end inside a digit versus longer ones with the same
// padded digit, and digit-aligned lengths.
func TestStringOrderEdgeCases(t *testing.T) {
	nul := []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00",
		"a\x00\x00\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x00\x00", "a\x00b", "ab"}
	aligned := []string{"abcdefgh", "abcdefg", "abcdefghi", "abcdefgh\x00", "abcdefghabcdefgh", "abcdefghabcdefg",
		"abcdefghabcdefgh\x00", "abcdefghabcdefgh\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff"}
	var uris []string
	for i := 0; i < 3*radixGroup; i++ {
		uris = append(uris, "http://dbpedia.org/resource/"+strconv.Itoa(i*7919%100003))
	}
	for name, strs := range map[string][]string{
		"nul":     nul,
		"aligned": aligned,
		"uris":    uris,
		// Repeat the small tables across the radix cutoff by prefixing them.
		"nul-large":     crossTable(nul, uris[:40]),
		"aligned-large": crossTable(aligned, uris[:40]),
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			s := slices.Clone(strs)
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			checkOrder(t, s)
		})
	}
}

// crossTable returns every prefix+suffix concatenation, deduplicated.
func crossTable(suffixes, prefixes []string) []string {
	var out []string
	for _, p := range prefixes {
		for _, s := range suffixes {
			out = append(out, p+s)
		}
	}
	return dedup(out)
}

// TestStringOrderDuplicates: tables with repeats still come out in order.
func TestStringOrderDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := adversarialTable(rng, 300)
	strs := append(slices.Clone(base), base[:150]...)
	rng.Shuffle(len(strs), func(i, j int) { strs[i], strs[j] = strs[j], strs[i] })
	checkOrder(t, strs)
}

// TestFreezeStringsLookup: a frozen table's Lookup finds every string at its
// own index through the kernel's permutation.
func TestFreezeStringsLookup(t *testing.T) {
	strs := adversarialTable(rand.New(rand.NewSource(5)), 2000)
	fs := FreezeStrings(strs, true)
	for i, s := range strs {
		if id, ok := fs.Lookup(s); !ok || int(id) != i {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", s, id, ok, i)
		}
	}
	if _, ok := fs.Lookup("\x01not-in-table\x01"); ok {
		t.Fatal("Lookup found an absent string")
	}
}

// TestNewFrozenStringsRejectsBadPermutation: an out-of-range sorted entry is
// an error at construction, never a panic at lookup.
func TestNewFrozenStringsRejectsBadPermutation(t *testing.T) {
	blob, off, sorted := FreezeStrings([]string{"b", "a", "c"}, true).Parts()
	bad := slices.Clone(sorted)
	bad[1] = 3
	if _, err := NewFrozenStrings(blob, off, bad); err == nil {
		t.Fatal("out-of-range sorted entry accepted")
	}
	bad[1] = 1 << 31
	if _, err := NewFrozenStrings(blob, off, bad); err == nil {
		t.Fatal("huge sorted entry accepted")
	}
	if _, err := NewFrozenStrings(blob, off, sorted); err != nil {
		t.Fatal(err)
	}
}

// FuzzSortPerm checks the kernel against the strings.Compare oracle on
// tables decoded from the fuzz input: length-prefixed strings (a length
// byte, then that many bytes). When the first byte is odd the table is
// also crossed with itself, which pushes small inputs past the kernel's
// size cutoffs.
func FuzzSortPerm(f *testing.F) {
	f.Add([]byte("\x00\x01a\x02a\x00\x00\x01\x00"))
	f.Add([]byte("\x01\x08abcdefgh\x09abcdefgh\x00\x07abcdefg\x10http://x.org/r/1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cross := data[0]&1 == 1
		var strs []string
		for rest := data[1:]; len(rest) > 0 && len(strs) < 64; {
			n := min(int(rest[0]), len(rest)-1)
			strs = append(strs, string(rest[1:1+n]))
			rest = rest[1+n:]
		}
		if cross {
			strs = append(strs, crossTable(strs, strs)...)
		}
		checkOrder(t, strs)
		checkOrder(t, dedup(strs))
	})
}

// benchTables are synthetic stand-ins for the snapshot's largest tables:
// short ID-like tokens, multi-token normalized values, and URIs behind a
// long shared prefix.
func benchTables(n int) map[string][]string {
	rng := rand.New(rand.NewSource(11))
	tokens := make([]string, n)
	values := make([]string, n)
	uris := make([]string, n)
	for i := range tokens {
		tokens[i] = "r" + strconv.Itoa(i)
		values[i] = fmt.Sprintf("m%d r%d c%d", rng.Intn(400), i, rng.Intn(40))
		uris[i] = "http://dbpedia.org/resource/" + strconv.Itoa(i)
	}
	rng.Shuffle(n, func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })
	return map[string][]string{"tokens": tokens, "values": values, "uris": uris}
}

func BenchmarkStringOrder(b *testing.B) {
	for _, name := range []string{"tokens", "values", "uris"} {
		strs := benchTables(200_000)[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				StringOrder(strs)
			}
		})
	}
}
