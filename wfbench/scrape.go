package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape reads the server's /metrics exposition into a map from series
// (metric name plus labels, as printed) to value.
func scrape(h *harness) (map[string]float64, error) {
	b, err := h.do(http.MethodGet, "/metrics", nil, 0, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// solveSecondsByKind sums the wfserve_solve_seconds_sum series of every
// cell (and operation) by the cell's workflow kind.
func solveSecondsByKind(m map[string]float64) map[string]float64 {
	const prefix = `wfserve_solve_seconds_sum{cell="`
	out := make(map[string]float64)
	for series, v := range m {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		cell := series[len(prefix):]
		if i := strings.IndexByte(cell, '/'); i >= 0 {
			out[cell[:i]] += v
		}
	}
	return out
}
