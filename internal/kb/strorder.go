// String-order kernel: the permutation that sorts a table of distinct
// strings, computed by an MSD sort over inline 8-byte prefix digits. Each
// level loads the next 8 bytes of every string as one big-endian integer
// and orders those integers, so a comparison never dereferences a string;
// only groups that tie on a full digit descend to the next 8 bytes. This is
// what frozen dictionaries and the name-usage index are ordered by, and it
// produces exactly the order a string comparison sort would.
package kb

import (
	"cmp"
	"slices"
	"strings"
)

// prefixKey is one string's sort state at one level: the 8 bytes at the
// current depth as a big-endian integer (zero-padded past the string's
// end), how many of the string's bytes remain from that depth capped at 9
// (≤ 8: the string ends inside or at the end of this digit; 9: it goes on),
// and the string's index in the table.
type prefixKey struct {
	key uint64
	rem uint32
	idx uint32
}

// smallGroup is the group size at or below which a level compares the
// remaining string suffixes directly instead of extracting digits, and
// radixGroup the size from which a level orders its keys with an LSD radix
// sort rather than pdqsort.
const (
	smallGroup = 8
	radixGroup = 256
)

// StringOrder returns the permutation of indices that orders strs by
// string (bytewise, as strings.Compare does). strs should hold distinct
// strings, which makes the permutation unique; duplicates end up adjacent
// in an unspecified relative order.
func StringOrder(strs []string) []uint32 {
	keys := make([]prefixKey, len(strs))
	for i := range keys {
		keys[i].idx = uint32(i)
	}
	sortPrefixKeys(keys, make([]prefixKey, len(keys)), strs, 0)
	order := make([]uint32, len(keys))
	for i := range keys {
		order[i] = keys[i].idx
	}
	return order
}

// sortPrefixKeys orders keys by the suffixes strs[idx][depth:], which all
// exist: every string of a group reaching depth has more than depth bytes
// (or depth is 0). tmp is scratch of len(keys).
func sortPrefixKeys(keys, tmp []prefixKey, strs []string, depth int) {
	if len(keys) <= smallGroup {
		slices.SortFunc(keys, func(a, b prefixKey) int {
			return strings.Compare(strs[a.idx][depth:], strs[b.idx][depth:])
		})
		return
	}
	for i := range keys {
		keys[i].key, keys[i].rem = prefixDigit(strs[keys[i].idx][depth:])
	}
	// A string ending inside a digit is a prefix of every longer string
	// with the same digit (the padding zeros equal the longer string's
	// bytes), so it sorts first: rem breaks digit ties in string order.
	if len(keys) >= radixGroup {
		radixSortKeys(keys, tmp)
	} else {
		slices.SortFunc(keys, func(a, b prefixKey) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.rem, b.rem)
		})
	}
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].key == keys[lo].key && keys[hi].rem == keys[lo].rem {
			hi++
		}
		// Only strings that go on past this digit can still differ.
		if hi-lo > 1 && keys[lo].rem > 8 {
			sortPrefixKeys(keys[lo:hi], tmp[lo:hi], strs, depth+8)
		}
		lo = hi
	}
}

// radixSortKeys orders keys by (key, rem) with a least-significant-digit
// radix sort over 9 byte digits: rem first, then the key's 8 bytes from
// the lowest. One read pass builds every digit's histogram, and a digit on
// which all keys agree (common: the low bytes of short strings are all
// padding) costs no pass. tmp is scratch of len(keys).
func radixSortKeys(keys, tmp []prefixKey) {
	var counts [9][256]int
	for _, k := range keys {
		counts[0][byte(k.rem)]++
		for d := 1; d < 9; d++ {
			counts[d][byte(k.key>>(8*(d-1)))]++
		}
	}
	src, dst := keys, tmp
	for d := range counts {
		c := &counts[d]
		shift := 8 * (d - 1)
		digit := func(k prefixKey) byte {
			if d == 0 {
				return byte(k.rem)
			}
			return byte(k.key >> shift)
		}
		if c[digit(src[0])] == len(src) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, k := range src {
			b := digit(k)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// prefixDigit returns the first 8 bytes of s as a big-endian integer
// (zero-padded) and min(len(s), 9).
func prefixDigit(s string) (uint64, uint32) {
	if len(s) >= 8 {
		k := uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
		return k, uint32(min(len(s), 9))
	}
	var k uint64
	for i := 0; i < len(s); i++ {
		k |= uint64(s[i]) << (56 - 8*i)
	}
	return k, uint32(len(s))
}
