package ipcp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestSessionReplaceEditsKeepHeapFlat: fast-path replace edits of one
// unit must not keep the replaced units alive. Each edit re-parses and
// re-checks the unit in place; per-expression facts that outlive the
// unit they describe would pin every replaced AST, and the live heap
// would grow with the number of edits.
func TestSessionReplaceEditsKeepHeapFlat(t *testing.T) {
	leaf := func(k int) string {
		var b strings.Builder
		b.WriteString("SUBROUTINE LEAF(N, M)\nINTEGER N, M, I, J\nJ = 0\n")
		for i := 0; i < 60; i++ {
			fmt.Fprintf(&b, "I = N * %d + M - (J + %d) / 2\nJ = J + I * %d\n", i+1, k, i+2)
		}
		b.WriteString("PRINT *, I, J\nEND\n")
		return b.String()
	}
	src := "PROGRAM MAIN\nCALL LEAF(8, 3)\nEND\n\n" + leaf(1)
	s, err := OpenSession(context.Background(), "leak.f", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	texts := [2]string{leaf(2), leaf(1)}
	edit := func(n int) {
		for i := 0; i < n; i++ {
			info, err := s.Edit(context.Background(), []UnitEdit{{Op: "replace", Index: 1, Text: texts[i%2]}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath {
				t.Fatalf("edit %d left the fast path: %+v", i, info)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const edits = 400
	edit(50) // warm the session's caches
	before := liveHeap()
	edit(edits)
	after := liveHeap()
	// A pinned AST of this unit and its side-table entries cost tens of
	// kilobytes per edit; 4 MB over the run is 10 KB per edit.
	const bound = 4 << 20
	if after > before && after-before > bound {
		t.Fatalf("live heap grew %.1f MB over %d edits (%.0f bytes/edit); want at most %d MB",
			float64(after-before)/(1<<20), edits, float64(after-before)/edits, bound>>20)
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
}
