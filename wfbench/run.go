package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// phase is one timed stretch of a workload's traffic.
type phase struct {
	ops      []op
	repeats  []repeat
	wrong    []error // per op: the checker's verdict (nil when correct or failed)
	elapsed  time.Duration
	mallocs  uint64
	gcs      uint64
	peakHeap uint64 // the largest live heap the collector reported
	// before and after are /metrics scrapes around the phase; queuedMax
	// is the largest wfserve_queued_requests seen while sampling.
	before, after map[string]float64
	queuedMax     float64
	spills        []*spill // the clients' spilled responses
}

// mallocs returns the process's cumulative heap allocation count (what
// runtime.MemStats.Mallocs counts, read without stopping the world).
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap is the runtime/metrics sample of the heap the last
// collection found live. Unlike the heap's current size, it does not
// swing with allocation timing between collections.
const liveHeap = "/gc/heap/live:bytes"

// drive runs the workload's clients against h for secs seconds. With
// sampleQueue it also scrapes /metrics every 100ms for the queue gauge.
func drive(w *workload, e *env, h *harness, secs int, sampleQueue bool) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = scrape(h); err != nil {
		return nil, err
	}
	clients := make([]*client, w.clients)
	for i := range clients {
		sp, err := newSpill(e.workdir)
		if err != nil {
			p.removeSpills()
			return nil, err
		}
		p.spills = append(p.spills, sp)
		clients[i] = &client{id: i, g: newGen(e.seed, int64(i+1)), spill: sp}
	}
	runtime.GC()
	malloc0, gc0 := mallocs(), gcCycles()

	stop := make(chan struct{})
	var samplers sync.WaitGroup
	samplers.Add(1)
	go func() {
		defer samplers.Done()
		sample := []metrics.Sample{{Name: liveHeap}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			metrics.Read(sample)
			p.peakHeap = max(p.peakHeap, sample[0].Value.Uint64())
			if sampleQueue && n%10 == 0 {
				if m, err := scrape(h); err == nil {
					p.queuedMax = max(p.queuedMax, m["wfserve_queued_requests"])
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		clients[i].deadline = start.Add(time.Duration(secs) * time.Second)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			w.client(e, h, c)
		}(clients[i])
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	close(stop)
	samplers.Wait()
	p.mallocs, p.gcs = mallocs()-malloc0, gcCycles()-gc0
	for _, c := range clients {
		for _, r := range c.repeats {
			r.of += int32(len(p.ops))
			p.repeats = append(p.repeats, r)
		}
		p.ops = append(p.ops, c.ops...)
	}
	if p.after, err = scrape(h); err != nil {
		p.removeSpills()
		return nil, err
	}
	return p, nil
}

// removeSpills deletes the phase's spill files.
func (p *phase) removeSpills() error {
	var first error
	for _, sp := range p.spills {
		if err := sp.remove(); err != nil && first == nil {
			first = err
		}
	}
	p.spills = nil
	return first
}

// check runs the checker over every op that completed (except repeats
// dedupe found identical to a checked answer), on workers
// goroutines sharing one oracle, and returns the number of wrong answers.
func (p *phase) check(o *oracle, workers int) int {
	p.wrong = make([]error, len(p.ops))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				resp, err := p.ops[i].response()
				if err == nil {
					err = p.ops[i].check(o, resp)
				}
				p.wrong[i] = err
			}
		}()
	}
	for i, op := range p.ops {
		if op.err == nil {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	wrong := 0
	for i, err := range p.wrong {
		if err != nil {
			wrong++
			if wrong <= 5 {
				fmt.Fprintf(os.Stderr, "wfbench: wrong answer (%s #%d): %v\n", p.ops[i].class, p.ops[i].req, err)
			}
		}
	}
	for _, r := range p.repeats {
		if p.wrong[r.of] != nil {
			wrong++
		}
	}
	return wrong
}

// attempted counts every request of the phase.
func (p *phase) attempted() int { return len(p.ops) + len(p.repeats) }

// failures counts ops that failed or were refused, reporting the first
// few on stderr.
func (p *phase) failures() int {
	n := 0
	for _, op := range p.ops {
		if op.err != nil {
			n++
			if n <= 5 {
				fmt.Fprintf(os.Stderr, "wfbench: failed request (%s #%d): %v\n", op.class, op.req, op.err)
			}
		}
	}
	return n
}

// completed returns the latencies, in milliseconds, of the timed ops
// that completed, and how many of those met limit with a correct answer.
func (p *phase) completed(limit time.Duration) (lat []float64, good int) {
	for i, op := range p.ops {
		if !op.timed || op.err != nil {
			continue
		}
		lat = append(lat, ms(op.dur))
		if op.dur <= limit && p.wrong[i] == nil {
			good++
		}
	}
	for _, r := range p.repeats {
		lat = append(lat, float64(r.ms))
		if float64(r.ms) <= ms(limit) && p.wrong[r.of] == nil {
			good++
		}
	}
	return lat, good
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
	note       string // sample count or basis, printed on the human line
}

// report collects a run's metrics in print order.
type report struct{ ms []metric }

func (r *report) add(name, unit string, value float64, note string, args ...any) {
	r.ms = append(r.ms, metric{name: name, unit: unit, value: value, note: fmt.Sprintf(note, args...)})
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(w *workload, p *phase, setups []float64) *report {
	r := &report{}
	lat, good := p.completed(w.limit)
	secs := p.elapsed.Seconds()
	n := len(lat)
	r.add("setup_s", "s", median(setups), "median of %d set-ups", len(setups))
	r.add("throughput_rps", "1/s", float64(n)/secs, "%d completed in %.2fs", n, secs)
	r.add("goodput_rps", "1/s", float64(good)/secs, "%d correct within %v", good, w.limit)
	r.add("latency_p50_ms", "ms", median(lat), "n=%d", n)
	// The allocations of anytime-budgeted requests are left out: their
	// number is set by the iterations the time budget affords on this
	// machine, not by the code path (the traced run reports them per
	// iteration).
	allocs, reqs := p.mallocs, n
	for _, op := range p.ops {
		if op.budgetMs > 0 && op.err == nil {
			allocs -= min(allocs, op.budgetAllocs)
			reqs--
		}
	}
	r.add("allocs_per_req", "count", float64(allocs)/float64(max(reqs, 1)), "process-wide mallocs over %d requests without an anytime budget", reqs)
	return r
}
