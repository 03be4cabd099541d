package core

import (
	"encoding/binary"
	"strconv"
	"strings"

	"repro/internal/js/ast"
)

// Triple is one level of the loop characterization stack: which syntactic
// loop, which dynamic instance of it, and which iteration is currently
// running (§3.3 of the paper).
type Triple struct {
	Loop      ast.LoopID
	Instance  int64
	Iteration int64
}

// Stamp is an immutable snapshot of the characterization stack, taken at
// object-instantiation or binding-creation time (the paper stores it in an
// ES Proxy wrapper; here it lives in the Aux slot of bindings/objects).
// LoopStack makes one per stack change, and DepAnalyzer keeps a pointer
// to it per binding, object and write, so stamps taken under the same
// stack share one snapshot.
type Stamp []Triple

// sameSnapshot reports whether a and b are one snapshot (not merely
// equal ones): their characterization is "ok ok" at every level.
func sameSnapshot(a, b Stamp) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// LevelChar characterizes one loop level of an access: whether the value
// is private per instance and per iteration of that loop. The paper prints
// these as "ok"/"dependence" pairs.
type LevelChar struct {
	Loop        ast.LoopID
	InstanceOK  bool
	IterationOK bool
}

// Characterization is the per-loop-level characterization of one access,
// outermost loop first — the "→"-separated triple list of §3.3.
type Characterization []LevelChar

// Characterize diffs the creation stamp of the accessed location against
// the current stack, producing the paper's ok/dependence list:
//
//   - matching levels (same loop, same instance, same iteration) are
//     "ok ok";
//   - a level whose iteration differs is "ok dependence"; one whose
//     instance differs is "dependence dependence" ("dependence ok" is not
//     a valid characterization — if all instances share the value, all
//     iterations do too);
//   - levels missing from the stamp (the value was created before the
//     loop began, in the current enclosing iteration) are
//     "ok dependence": every iteration of this instance shares the value;
//   - once a level differs, all deeper levels are conservatively
//     "dependence dependence".
func Characterize(stamp, current Stamp) Characterization {
	return appendCharacterization(make(Characterization, 0, len(current)), stamp, current)
}

// appendCharacterization appends Characterize(stamp, current) to dst, so
// an analyzer can characterize every access into one buffer.
func appendCharacterization(dst Characterization, stamp, current Stamp) Characterization {
	if sameSnapshot(stamp, current) {
		for _, cur := range current {
			dst = append(dst, LevelChar{Loop: cur.Loop, InstanceOK: true, IterationOK: true})
		}
		return dst
	}
	misaligned := false
	for i, cur := range current {
		if misaligned {
			dst = append(dst, LevelChar{Loop: cur.Loop})
			continue
		}
		if i < len(stamp) && stamp[i].Loop == cur.Loop {
			instOK := stamp[i].Instance == cur.Instance
			iterOK := instOK && stamp[i].Iteration == cur.Iteration
			dst = append(dst, LevelChar{Loop: cur.Loop, InstanceOK: instOK, IterationOK: iterOK})
			if !iterOK {
				misaligned = true
			}
			continue
		}
		if i >= len(stamp) {
			// Created before this loop started, within the current
			// iteration of every enclosing loop.
			dst = append(dst, LevelChar{Loop: cur.Loop, InstanceOK: true, IterationOK: false})
			misaligned = true
			continue
		}
		// Structural mismatch (different loop at this level).
		dst = append(dst, LevelChar{Loop: cur.Loop})
		misaligned = true
	}
	return dst
}

// Clean reports whether every level is "ok ok" (the access is private to
// the current iteration at every depth — not problematic).
func (c Characterization) Clean() bool {
	for _, l := range c {
		if !l.InstanceOK || !l.IterationOK {
			return false
		}
	}
	return true
}

// DependsAt reports whether the characterization shows an inter-iteration
// or inter-instance dependence at the given loop.
func (c Characterization) DependsAt(loop ast.LoopID) bool {
	for _, l := range c {
		if l.Loop == loop {
			return !l.InstanceOK || !l.IterationOK
		}
	}
	return false
}

// hasIterationDep reports whether any level is "ok dependence" — a true
// inter-iteration dependence with instance-level privacy.
func (c Characterization) hasIterationDep() bool {
	for _, l := range c {
		if l.InstanceOK && !l.IterationOK {
			return true
		}
	}
	return false
}

// Key returns a canonical string for deduplicating identical
// characterizations, e.g. "1:oo/4:od".
func (c Characterization) Key() string { return string(c.appendKey(nil)) }

func (c Characterization) appendKey(dst []byte) []byte {
	for i, l := range c {
		if i > 0 {
			dst = append(dst, '/')
		}
		dst = strconv.AppendInt(dst, int64(l.Loop), 10)
		dst = append(dst, ':', flagChar(l.InstanceOK), flagChar(l.IterationOK))
	}
	return dst
}

// appendDedupKey appends a length-prefixed binary encoding of c: the
// level count, then one uvarint per level holding the loop and its two
// flags. Two characterizations encode alike exactly when their Keys are
// equal, and the length prefix keeps a name appended after it apart.
func (c Characterization) appendDedupKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c)))
	for _, l := range c {
		v := uint64(l.Loop) << 2
		if l.InstanceOK {
			v |= 2
		}
		if l.IterationOK {
			v |= 1
		}
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func flagChar(ok bool) byte {
	if ok {
		return 'o'
	}
	return 'd'
}

// Format renders the characterization in the paper's notation, e.g.
// "while(line 24) ok ok → for(line 6) ok dependence". loops maps LoopID to
// its LoopInfo (pass prog.Loops).
func (c Characterization) Format(loops []ast.LoopInfo) string {
	var sb strings.Builder
	for i, l := range c {
		if i > 0 {
			sb.WriteString(" → ")
		}
		sb.WriteString(loopLabel(loops, l.Loop))
		sb.WriteByte(' ')
		sb.WriteString(flagWord(l.InstanceOK))
		sb.WriteByte(' ')
		sb.WriteString(flagWord(l.IterationOK))
	}
	return sb.String()
}

func flagWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "dependence"
}

func loopLabel(loops []ast.LoopInfo, id ast.LoopID) string {
	idx := int(id) - 1
	if idx >= 0 && idx < len(loops) {
		return loops[idx].Label()
	}
	return "loop(?)"
}
