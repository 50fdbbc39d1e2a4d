package sim

import (
	"testing"
	"unsafe"
)

// The pooled event record is its time, its sequence number and one
// Handler: four words on a 64-bit target. A second target field would
// grow every record in the pool, the heap's sift and the ready ring's copy.
func TestEventRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the record size is pinned for 64-bit targets")
	}
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("event record is %d bytes, want 32", n)
	}
}
