package buffer

// Contains reports whether the page is currently resident.
func (b *Pool) Contains(physPage int) bool {
	if b.capacity == 0 {
		return false
	}
	_, f := b.lookup(physPage)
	return f >= 0
}

// Len reports the number of resident pages.
func (b *Pool) Len() int { return int(b.used) }
