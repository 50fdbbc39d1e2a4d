package storage

// HasTID reports whether the fragment holds the tuple.
func (f *Fragment) HasTID(tid int64) bool {
	_, ok := f.slotOfTID(tid)
	return ok
}
