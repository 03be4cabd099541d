package core

import (
	"slices"

	"repro/internal/js/ast"
)

// LoopStack is the live characterization stack of §3.3: one Triple per
// currently-open loop, outermost first. Loop instances are numbered from a
// global per-loop counter, incremented on every entry, exactly as the
// paper describes.
type LoopStack struct {
	stack     []Triple
	instances map[ast.LoopID]int64

	// open tracks how many frames of each loop are on the stack so the
	// recursion bail-out (§3.3) can detect a loop re-entered before it
	// exits — the signature of recursion growing the stack indefinitely.
	open map[ast.LoopID]int

	// snap is the stamp of the stack as it stands, made by the first
	// stamp() since the stack last changed; nil until then.
	snap *Stamp
}

// NewLoopStack returns an empty stack.
func NewLoopStack() *LoopStack {
	return &LoopStack{
		instances: make(map[ast.LoopID]int64),
		open:      make(map[ast.LoopID]int),
	}
}

// Enter pushes a new instance of loop id. It reports whether the push was
// recursive (the loop was already open).
func (ls *LoopStack) Enter(id ast.LoopID) (recursive bool) {
	recursive = ls.open[id] > 0
	ls.instances[id]++
	ls.stack = append(ls.stack, Triple{Loop: id, Instance: ls.instances[id], Iteration: 0})
	ls.open[id]++
	ls.snap = nil
	return recursive
}

// Iterate increments the iteration counter of the innermost open instance
// of loop id (in well-nested programs that instance is the top of stack).
func (ls *LoopStack) Iterate(id ast.LoopID) {
	for i := len(ls.stack) - 1; i >= 0; i-- {
		if ls.stack[i].Loop == id {
			ls.stack[i].Iteration++
			ls.snap = nil
			return
		}
	}
}

// Exit pops the innermost instance of loop id.
func (ls *LoopStack) Exit(id ast.LoopID) {
	for i := len(ls.stack) - 1; i >= 0; i-- {
		if ls.stack[i].Loop == id {
			ls.stack = append(ls.stack[:i], ls.stack[i+1:]...)
			if ls.open[id] > 0 {
				ls.open[id]--
			}
			ls.snap = nil
			return
		}
	}
}

// Depth returns the number of open loops.
func (ls *LoopStack) Depth() int { return len(ls.stack) }

// Contains reports whether loop id is currently open.
func (ls *LoopStack) Contains(id ast.LoopID) bool { return ls.open[id] > 0 }

// stamp returns a pointer to the stack's snapshot, an immutable copy of
// the stack, making it on the first call since the stack last changed,
// so every stamp taken between two changes is the same pointer — what an
// analyzer stores per binding, object and write (the paper stores
// snapshots in its object proxies).
func (ls *LoopStack) stamp() *Stamp {
	if ls.snap == nil {
		ls.snap = freeze(ls.stack)
	}
	return ls.snap
}

// Instances returns how many times loop id has been entered.
func (ls *LoopStack) Instances(id ast.LoopID) int64 { return ls.instances[id] }

// emptyStamp is every stamp of the empty stack.
var emptyStamp Stamp

// freeze copies stack into a new immutable stamp: for a stack up to four
// deep, the stamp and its triples in one allocation.
func freeze(stack []Triple) *Stamp {
	switch n := len(stack); {
	case n == 0:
		return &emptyStamp
	case n <= 2:
		f := new(struct {
			s   Stamp
			buf [2]Triple
		})
		f.s = f.buf[:n:n]
		copy(f.s, stack)
		return &f.s
	case n <= 4:
		f := new(struct {
			s   Stamp
			buf [4]Triple
		})
		f.s = f.buf[:n:n]
		copy(f.s, stack)
		return &f.s
	}
	s := Stamp(slices.Clone(stack))
	return &s
}
