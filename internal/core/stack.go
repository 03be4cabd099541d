package core

import "repro/internal/js/ast"

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

	// Recursive collects loops that were re-entered recursively; analysis
	// results for their nests must be discarded.
	Recursive map[ast.LoopID]bool
}

// NewLoopStack returns an empty stack.
func NewLoopStack() *LoopStack {
	return &LoopStack{
		instances: make(map[ast.LoopID]int64),
		open:      make(map[ast.LoopID]int),
		Recursive: make(map[ast.LoopID]bool),
	}
}

// Enter pushes a new instance of loop id. It reports whether the push was
// recursive (the loop was already open).
func (ls *LoopStack) Enter(id ast.LoopID) (recursive bool) {
	if ls.open[id] > 0 {
		recursive = true
		ls.Recursive[id] = true
	}
	ls.instances[id]++
	ls.stack = append(ls.stack, Triple{Loop: id, Instance: ls.instances[id], Iteration: 0})
	ls.open[id]++
	return recursive
}

// Iterate increments the iteration counter of the innermost open instance
// of loop id (in well-nested programs that instance is the top of stack).
func (ls *LoopStack) Iterate(id ast.LoopID) {
	for i := len(ls.stack) - 1; i >= 0; i-- {
		if ls.stack[i].Loop == id {
			ls.stack[i].Iteration++
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
			return
		}
	}
}

// Depth returns the number of open loops.
func (ls *LoopStack) Depth() int { return len(ls.stack) }

// Contains reports whether loop id is currently open.
func (ls *LoopStack) Contains(id ast.LoopID) bool { return ls.open[id] > 0 }

// Top returns the innermost open triple and whether one exists.
func (ls *LoopStack) Top() (Triple, bool) {
	if len(ls.stack) == 0 {
		return Triple{}, false
	}
	return ls.stack[len(ls.stack)-1], true
}

// Snapshot returns an immutable copy of the stack for use as a stamp.
// Snapshots are what the paper stores in its object proxies.
func (ls *LoopStack) Snapshot() Stamp {
	if len(ls.stack) == 0 {
		return nil
	}
	out := make(Stamp, len(ls.stack))
	copy(out, ls.stack)
	return out
}

// Instances returns how many times loop id has been entered.
func (ls *LoopStack) Instances(id ast.LoopID) int64 { return ls.instances[id] }
