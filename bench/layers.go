package main

import (
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/parallel"
	"repro/internal/proxy"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// probeLayers measures what one layer costs on its own, away from any
// workload: the numbers that say which layer moved when an end-to-end
// metric does. Every probe is a few hundred milliseconds at most, so
// every traced run carries them all.
func probeLayers(cfg runConfig, m measured) error {
	// First, while this process has parsed nothing: workloads.Parse
	// answers from a process-wide cache after the first call.
	var bytes int
	t0 := time.Now()
	for _, wl := range workloads.All() {
		if _, err := workloads.Parse(wl); err != nil {
			return err
		}
		bytes += len(wl.Source)
	}
	m.set("js.parse_mb_per_s", float64(bytes)/1e6/time.Since(t0).Seconds())

	// What every worker of every parallel call pays: a fresh
	// interpreter with one kernel source loaded (parse and compile
	// caches warm after the first, which is dropped).
	kern := &parallel.Kernel{Source: workloads.ExecKernels()[0].KernelSource()}
	load, err := timeEach(21, 1, ms, func() error {
		_, err := kern.NewWorker()
		return err
	})
	if err != nil {
		return err
	}
	m["js.load_ms"] = load[1:]

	if err := effectsProbe(cfg.seed, m); err != nil {
		return err
	}

	// An empty body leaves only the scheduler: plan, deal, steal, join.
	opts := sched.Options{Workers: cfg.w}
	chunks := float64(len(sched.Plan(4096, opts)))
	m["sched.run_ns_per_chunk"], err = timeEach(21, 1, func(d time.Duration) float64 { return ns(d) / chunks }, func() error {
		_, err := sched.Run(4096, opts, func(w, ci, lo, hi int) error { return nil })
		return err
	})
	if err != nil {
		return err
	}

	q := sched.NewQueue(cfg.w, 8*cfg.w)
	done := make(chan struct{})
	m["sched.queue_roundtrip_us"], err = timeEach(9, cfg.scaled(200), us, func() error {
		err := q.Submit(func(*sched.WorkerCtx) { done <- struct{}{} })
		if err == nil {
			<-done
		}
		return err
	})
	q.Close()
	if err != nil {
		return err
	}

	if err := probeInstrument(cfg, m); err != nil {
		return err
	}

	cache := proxy.NewShardedRewriteCache(cacheBytes, cacheShards)
	hot := newCorpus(cfg.seed).single(0)
	hit, err := timeEach(10, cfg.scaled(500), us, func() error {
		_, _, err := cache.RewriteTimed(hot, serveMode, sched.ClassInteractive)
		return err
	})
	if err != nil {
		return err
	}
	m["proxy.cache_hit_us"] = hit[1:] // the first sample holds the miss

	peers := []string{"http://a", "http://b", "http://c"}
	ring, err := cluster.New(cluster.Config{Self: peers[0], Peers: peers})
	if err != nil {
		return err
	}
	point := cfg.seed
	m["cluster.route_ns"], err = timeEach(9, cfg.scaled(2000), ns, func() error {
		point = point*6364136223846793005 + 1442695040888963407
		ring.Route(point)
		return nil
	})
	return err
}

// timeEach returns `samples` samples, each the mean duration of `per`
// back-to-back calls of fn, in the unit conv gives.
func timeEach(samples, per int, conv func(time.Duration) float64, fn func() error) ([]float64, error) {
	out := make([]float64, samples)
	for i := range out {
		t0 := time.Now()
		for j := 0; j < per; j++ {
			if err := fn(); err != nil {
				return nil, err
			}
		}
		out[i] = conv(time.Since(t0) / time.Duration(per))
	}
	return out, nil
}

// probeInstrument runs the four rewrite stages one by one over bundles
// of the serve_miss corpus.
func probeInstrument(cfg runConfig, m measured) error {
	corp := newCorpus(cfg.seed)
	var in, out int
	var total time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := hotPool; id < hotPool+cfg.scaled(24); id++ {
		src := corp.bundle(id)
		t0 := time.Now()
		text := instrument.Decode(src)
		t1 := time.Now()
		prog, err := instrument.Parse(text)
		if err != nil {
			return err
		}
		t2 := time.Now()
		instrument.Transform(prog)
		t3 := time.Now()
		res := instrument.Encode(prog, serveMode)
		t4 := time.Now()
		m["instrument.decode_us"] = append(m["instrument.decode_us"], us(t1.Sub(t0)))
		m["instrument.parse_us"] = append(m["instrument.parse_us"], us(t2.Sub(t1)))
		m["instrument.transform_us"] = append(m["instrument.transform_us"], us(t3.Sub(t2)))
		m["instrument.encode_us"] = append(m["instrument.encode_us"], us(t4.Sub(t3)))
		in, out, total = in+len(src), out+len(res), total+t4.Sub(t0)
	}
	runtime.ReadMemStats(&after)
	m.set("instrument.rewrite_mb_per_s", float64(in)/1e6/total.Seconds())
	m.set("instrument.expansion_ratio", float64(out)/float64(in))
	m.set("instrument.allocs_per_kb", float64(after.Mallocs-before.Mallocs)/(float64(in)/1024))
	return nil
}
