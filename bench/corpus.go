package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/instrument"
	"repro/internal/workloads"
)

// serveMode is the instrumentation every serving workload asks for: the
// heavier of the proxy's two rewrites.
const serveMode = instrument.ModeLoops

// corpus generates scripts from the seed: the same (seed, id) always
// gives the same bytes, and no two ids give the same bytes. The program
// under test only ever sees the generated bytes.
type corpus struct {
	seed uint64
	apps []string // the 12 Table-1 sources, in Table 1 order
}

func newCorpus(seed uint64) *corpus {
	c := &corpus{seed: seed}
	for _, wl := range workloads.All() {
		c.apps = append(c.apps, wl.Source)
	}
	return c
}

// single is one Table-1 source (1.4-4 KB) made unique by a trailer
// statement: the smallest message the proxy rewrites. Ids cycle through
// the apps, so any run of consecutive ids has the same mix of sizes
// whatever the seed.
func (c *corpus) single(id int) []byte {
	return fmt.Appendf(nil, "%s\nvar __bench_id = %d + %d;\n", c.apps[id%len(c.apps)], c.seed, id)
}

// bundle concatenates a seeded shuffle of 8-12 Table-1 sources plus a
// unique trailer (~30 KB): a page's worth of script, about 2 ms of
// rewrite, never seen before.
func (c *corpus) bundle(id int) []byte {
	r := rand.New(rand.NewPCG(c.seed, uint64(id)))
	perm := r.Perm(len(c.apps))
	var buf bytes.Buffer
	for _, k := range perm[:8+r.IntN(5)] {
		buf.WriteString(c.apps[k])
		buf.WriteByte('\n')
	}
	fmt.Fprintf(&buf, "var __bench_id = %d + %d;\n", c.seed, id)
	return buf.Bytes()
}

// oracleSum is the SHA-256 of what a direct instrument.Rewrite call
// makes of src; with reparse it also checks that the rewritten text is
// still a program.
func oracleSum(id int, src []byte, reparse bool) ([sha256.Size]byte, error) {
	res, err := instrument.Rewrite(instrument.Decode(src), serveMode)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("oracle rewrite of source %d: %w", id, err)
	}
	if reparse {
		if _, err := instrument.Parse(res.Source); err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("rewritten source %d does not re-parse: %w", id, err)
		}
	}
	return sha256.Sum256([]byte(res.Source)), nil
}

// served is one 200 response as the client saw it: the source asked
// for and the SHA-256 of the body that came back.
type served struct {
	id  int
	sum [sha256.Size]byte
}

// reparseEvery bounds the cost of the re-parse check on never-repeated
// sources: every response's hash is checked, every reparseEvery-th
// distinct source is also re-parsed (hot sources all are).
const reparseEvery = 8

// verifyServed checks every response against the oracle on w goroutines
// and returns how many were wrong. Oracles of the hot pool are in known;
// body regenerates any other source from its id.
func verifyServed(resps []served, known map[int][sha256.Size]byte, body func(id int) []byte, w int) (failed int, firstErr error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan served)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				want, ok := known[r.id] // read-only while verifying
				var err error
				if !ok {
					want, err = oracleSum(r.id, body(r.id), r.id%reparseEvery == 0)
				}
				if err == nil && r.sum != want {
					err = fmt.Errorf("source %d: served bytes differ from a direct rewrite", r.id)
				}
				if err != nil {
					mu.Lock()
					failed++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range resps {
		next <- r
	}
	close(next)
	wg.Wait()
	return failed, firstErr
}
