package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
)

// spill is an append-only scratch file holding the responses a client
// keeps for checking, so they do not sit on the heap the run measures.
type spill struct {
	f   *os.File
	mu  sync.Mutex
	w   *bufio.Writer
	off int64
}

func newSpill(dir string) (*spill, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "spill-")
	if err != nil {
		return nil, err
	}
	return &spill{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// spilled locates one response in a spill file.
type spilled struct {
	s      *spill
	off, n int64
}

func (s *spill) write(b []byte) (spilled, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(b); err != nil {
		return spilled{}, fmt.Errorf("spilling a response: %w", err)
	}
	at := spilled{s: s, off: s.off, n: int64(len(b))}
	s.off += at.n
	return at, nil
}

func (at spilled) read() ([]byte, error) {
	s := at.s
	s.mu.Lock()
	err := s.w.Flush()
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("flushing spilled responses: %w", err)
	}
	b := make([]byte, at.n)
	if _, err := s.f.ReadAt(b, at.off); err != nil {
		return nil, fmt.Errorf("reading a spilled response: %w", err)
	}
	return b, nil
}

// remove deletes the spill file.
func (s *spill) remove() error {
	s.f.Close()
	return os.Remove(s.f.Name())
}
