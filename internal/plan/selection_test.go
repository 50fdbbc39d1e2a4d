package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// FuzzCompileSelection builds a chain of Filter nodes over a Scan or
// IndexScan leaf from the fuzzer's bytes and compiles it. leaf picks the
// leaf (0: bare Scan, 1: Scan with a pushed predicate, 2: IndexScan) and,
// for an IndexScan, the access method; every three bytes of spec are one
// predicate (attribute, low and high bound): the leaf's first unless the
// leaf is a bare Scan, then the filters' from the innermost out.
// CompileSelection must never panic. It must reject an IndexScan with
// seq-scan access and a chain naming a second attribute; any other chain
// must compile to the leaf's interval intersected with every filter's,
// folded from the leaf up.
func FuzzCompileSelection(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(0), []byte{0, 0, 0, 1, 2, 9})
	f.Add(byte(1), []byte{1, 0, 50, 1, 10, 90, 1, 20, 30})
	f.Add(byte(2), []byte{0, 5, 5, 0, 0, 9})
	f.Add(byte(6), []byte{0, 1, 9, 1, 1, 9})
	f.Add(byte(2), []byte{0, 1, 9, 0, 2, 8, 1, 1, 9})
	f.Add(byte(14), []byte{1, 0, 9})
	f.Fuzz(func(t *testing.T, leaf byte, spec []byte) {
		var preds []core.Predicate
		for ; len(spec) >= 3; spec = spec[3:] {
			attr := storage.Unique1
			if spec[0]%2 == 1 {
				attr = storage.Unique2
			}
			preds = append(preds, core.Predicate{Attr: attr,
				Lo: int64(int8(spec[1])), Hi: int64(int8(spec[2]))})
		}
		if len(preds) == 0 && leaf%3 != 0 {
			preds = append(preds, core.Predicate{Attr: storage.Unique1})
		}

		// The tree, and the reference fold of its chain from the leaf up.
		var n *Node
		var want Selection
		switch leaf % 3 {
		case 0:
			n = NewScan("wisc")
			want = Selection{Relation: "wisc", Access: AccessSeqScan}
		case 1:
			n = NewScanWhere("wisc", preds[0])
			want = Selection{Relation: "wisc", Pred: preds[0], HasPred: true, Access: AccessSeqScan}
			preds = preds[1:]
		default:
			access := Access(leaf / 3 % 4)
			n = NewIndexScan("wisc", preds[0], access)
			want = Selection{Relation: "wisc", Pred: preds[0], HasPred: true, Access: access}
			preds = preds[1:]
		}
		cross := false
		for _, p := range preds {
			n = NewFilter(p, n)
			switch {
			case !want.HasPred:
				want.Pred, want.HasPred = p, true
			case p.Attr != want.Pred.Attr:
				cross = true
			default:
				want.Pred.Lo = max(want.Pred.Lo, p.Lo)
				want.Pred.Hi = min(want.Pred.Hi, p.Hi)
			}
		}

		got, err := CompileSelection(n)
		switch {
		case n.Validate() != nil:
			if err == nil {
				t.Fatalf("%s: invalid tree compiled to %+v", n, got)
			}
		case cross:
			if err == nil || !strings.Contains(err.Error(), "single-attribute") {
				t.Fatalf("%s: cross-attribute chain compiled to %+v, err %v", n, got, err)
			}
		case err != nil:
			t.Fatalf("%s: %v", n, err)
		case got != want:
			t.Fatalf("%s: compiled %+v, reference fold %+v", n, got, want)
		}
	})
}
