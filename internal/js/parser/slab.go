package parser

// slabMax caps a chunk: chunks double from 4 entries to this, so a
// kernel-sized parse allocates a handful of small chunks and a
// page-sized one a few hundred entries at a time.
const slabMax = 128

// slab hands out the T's of one Parse from chunks instead of one
// allocation each. There is no pool and no reuse: a chunk is ordinary
// garbage once nothing points into it, and a node someone keeps (a
// closure's *ast.FuncLit, interp.Load's cache) keeps its chunk alive.
type slab[T any] struct {
	free  []T
	chunk int // length of the newest chunk
}

func (s *slab[T]) grow(n int) {
	s.chunk = min(max(2*s.chunk, 4), slabMax)
	s.free = make([]T, max(s.chunk, n))
}

// put stores v in the slab and returns its address.
func (s *slab[T]) put(v T) *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	*p = v
	return p
}

// take returns a copy of xs (nil if empty) carved from the slab with
// len == cap, so an append by whoever ends up holding it reallocates
// rather than writing over the neighbouring list.
func (s *slab[T]) take(xs []T) []T {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.grow(n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	copy(out, xs)
	return out
}

// lists builds child lists. Items of a list under construction are
// pushed on one stack shared by every open list of the type (lists nest
// as the grammar does); close carves the finished list from the slab.
type lists[T any] struct {
	slab[T]
	open []T
}

func (l *lists[T]) push(x T) { l.open = append(l.open, x) }

// close pops the items pushed since the stack stood at mark.
func (l *lists[T]) close(mark int) []T {
	out := l.take(l.open[mark:])
	l.open = l.open[:mark]
	return out
}
