package btree

// SortEntries sorts entries by Key in ascending order, stably: entries with
// equal keys keep their input order, exactly as slices.SortStableFunc with
// cmp.Compare on Key leaves them. It is a least-significant-digit radix sort
// over the key's eight bytes. Flipping the sign bit makes the unsigned byte
// order the signed key order. One pass over the input counts all eight byte
// histograms, and a byte on which every key agrees is skipped, so keys below
// 2^24 take three passes. Each pass scatters the entries into their byte's
// buckets in input order, which is what keeps equal keys in order. The
// passes alternate between entries and one scratch buffer of len(entries),
// allocated only when some byte needs a pass: the sort's only allocation.
// Each relation order is sorted once (storage.Relation.Order), so the
// buffer is not kept for a next call.
func SortEntries(entries []Entry) {
	n := len(entries)
	if n < 2 {
		return
	}
	var counts [8][256]int
	for _, e := range entries {
		k := uint64(e.Key) ^ 1<<63
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := uint64(entries[0].Key) ^ 1<<63
	src, dst := entries, []Entry(nil)
	for b := range counts {
		shift := uint(8 * b)
		c := &counts[b]
		if c[byte(first>>shift)] == n {
			continue // every key has this byte
		}
		if dst == nil {
			dst = make([]Entry, n)
		}
		// Turn the counts into each bucket's first output position.
		pos := 0
		for i, k := range c {
			c[i] = pos
			pos += k
		}
		for _, e := range src {
			d := byte((uint64(e.Key) ^ 1<<63) >> shift)
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &entries[0] {
		copy(entries, src)
	}
}
