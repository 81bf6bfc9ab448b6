// Command wfbench is repliflow's end-to-end benchmark. It generates
// seeded traffic for one workload, runs it from this process against
// server.New behind a real loopback net/http listener, checks every
// answer, and prints the workload's metrics by name and unit. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, from untraced
// traffic. With --trace 1 they are the per-layer ones: the same traffic
// runs once untraced and once with spans recorded around the calls into
// each layer, and the traced inputs are then driven through the layers'
// public functions. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash wfbench/run.sh --workload hot-cache --seed 1 --seconds 10 --trace 0
//	go -C wfbench run . spread runs.txt   # quartile spread of saved result lines
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// setupRepeats is how many times a run constructs and warms its server;
// setup_s is the median, and the last server serves the timed phase.
const setupRepeats = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spread(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "wfbench:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("wfbench", flag.ExitOnError)
	name := fs.String("workload", "hot-cache", "workload: hot-cache, np-hard or sweep-store")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	secs := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	workdir := fs.String("workdir", ".bench_build", "directory for the disk store and the span file")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if err := run(os.Stdout, *name, *seed, *secs, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "wfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of the output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload and writes the human-readable metric lines
// and the result line to out.
func run(out io.Writer, name string, seed int64, secs int, traced bool, workdir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if secs < 1 {
		return errors.New("--seconds must be at least 1")
	}
	e := &env{seed: seed, workdir: workdir}
	var setups []float64
	var h *harness
	for i := 0; i < setupRepeats; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		if h, err = w.setup(e, nil); err != nil {
			return fmt.Errorf("setting up %s: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	p, err := drive(w, e, h, secs, traced)
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	defer p.removeSpills()
	o := newOracle()
	workers := runtime.GOMAXPROCS(0)
	wrong, failed := p.check(o, workers), p.failures()
	attempted := p.attempted()
	var rep *report
	if traced {
		t, err := tracedRun(w, e, secs)
		if err != nil {
			return err
		}
		defer t.removeSpills()
		wrong += t.check(o, workers)
		failed += t.failures()
		attempted += t.attempted()
		rep, err = layers(w, e, p, t)
		if err != nil {
			return err
		}
	} else {
		rep = endToEnd(w, p, setups)
	}
	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed + wrong, Metrics: map[string]valueUnit{}}
	fmt.Fprintf(out, "workload %s (seed %d, %ds, %d clients): %s\n", w.name, seed, secs, w.clients, w.why)
	for _, m := range rep.ms {
		fmt.Fprintf(out, "  %-40s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		res.Metrics[m.name] = valueUnit{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintf(out, "  attempted %d, failed %d, wrong answers %d\n", attempted, failed, wrong)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
