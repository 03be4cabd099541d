package parser

import (
	"testing"
	"unsafe"

	"repro/internal/js/ast"
)

func TestSlabTakeHasExactCapacity(t *testing.T) {
	var s slab[int]
	a, b := s.take([]int{1, 2}), s.take([]int{4, 5})
	if len(a) != cap(a) || len(b) != cap(b) {
		t.Fatalf("carved lists have room to grow: len %d cap %d, len %d cap %d", len(a), cap(a), len(b), cap(b))
	}
	if unsafe.Add(unsafe.Pointer(&a[0]), 2*unsafe.Sizeof(a[0])) != unsafe.Pointer(&b[0]) {
		t.Fatal("test is vacuous: the two lists are not neighbours in one chunk")
	}
	a = append(a, 9)
	if b[0] != 4 || b[1] != 5 {
		t.Errorf("append to one list wrote over its neighbour: %v", b)
	}
	if s.take(nil) != nil {
		t.Error("an empty list must stay nil")
	}
	big := s.take(make([]int, 10*slabMax))
	if len(big) != 10*slabMax || cap(big) != len(big) {
		t.Errorf("list longer than a chunk: len %d cap %d", len(big), cap(big))
	}
}

func TestSlabPutKeepsAddressesAcrossChunks(t *testing.T) {
	var s slab[int]
	var ps []*int
	for i := 0; i < 5*slabMax; i++ {
		ps = append(ps, s.put(i))
	}
	for i, p := range ps {
		if *p != i {
			t.Fatalf("entry %d reads %d", i, *p)
		}
	}
}

// TestCarvedListsDoNotShare: a consumer that appends to a Body or an
// Args (the instrument oracle's transformer does both) must not change
// the next list carved from the same chunk.
func TestCarvedListsDoNotShare(t *testing.T) {
	prog := MustParse(`f(a, b); g(c, d); { x; y } { z; w } var p = 1, q; var r = 2, s;`)
	before := make([]string, len(prog.Body))
	for i, s := range prog.Body {
		before[i] = ast.Dump(s)
	}
	extra := &ast.Ident{Name: "extra"}
	call := prog.Body[0].(*ast.ExprStmt).X.(*ast.CallExpr)
	call.Args = append(call.Args, extra)
	block := prog.Body[2].(*ast.BlockStmt)
	block.Body = append(block.Body, &ast.ExprStmt{X: extra})
	decl := prog.Body[4].(*ast.VarDecl)
	decl.Names, decl.Inits = append(decl.Names, "extra"), append(decl.Inits, extra)
	prog.Body = append(prog.Body, &ast.ExprStmt{X: extra})
	for _, i := range []int{1, 3, 5} {
		if got := ast.Dump(prog.Body[i]); got != before[i] {
			t.Errorf("statement %d changed when its neighbour grew:\n%s\n%s", i, before[i], got)
		}
	}
}
