package rng

// FreshStates reports how many generator states streams have allocated
// because the free list was empty.
func FreshStates() int64 {
	free.Lock()
	defer free.Unlock()
	return free.fresh
}
