package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spread reads saved benchmark output (any lines; result lines are the
// JSON objects) from the named files and prints, per metric, the number
// of runs, the median and the quartile spread (Q3 - Q1) / median.
func spread(out io.Writer, files []string) error {
	vals := map[string][]float64{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			var res result
			if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &res) != nil {
				continue
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", f, err)
		}
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := vals[name]
		fmt.Fprintf(out, "%-36s runs=%-3d median=%-14.6g spread=%.4f\n", name, len(v), median(v), quartileSpread(v))
	}
	return nil
}
