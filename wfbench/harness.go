package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repliflow/internal/server"
	"repliflow/internal/store"
)

// harness is one server under test: server.New behind a real loopback
// net/http listener in this process, and the HTTP client the workload's
// clients share.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	disk   *store.DiskStore // non-nil when the server is store-backed
	dir    string           // the disk store's directory
	served chan error
}

// startHarness constructs the server from cfg and serves it on an
// ephemeral loopback port. wrap, when non-nil, wraps the server's
// handler (the traced run times Server.ServeHTTP through it).
func startHarness(cfg server.Config, conns int, wrap func(http.Handler) http.Handler) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := server.New(cfg)
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	hr := &harness{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { hr.served <- hr.hs.Serve(ln) }()
	return hr, nil
}

// close drains the server, waits for its listener goroutine and closes
// the store it was given, if any.
func (h *harness) close() error {
	h.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	if h.disk != nil {
		if cerr := h.disk.Close(); err == nil {
			err = cerr
		}
	}
	if h.dir != "" {
		if rerr := os.RemoveAll(h.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// do sends one request and reads the whole response body. A status
// other than want is an error carrying the body.
func (h *harness) do(method, path string, body []byte, span int, want int) ([]byte, error) {
	resp, err := h.send(method, path, body, span)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// send starts one request; the caller closes the response body. A
// non-zero span is the client span of a traced request.
func (h *harness) send(method, path string, body []byte, span int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp, nil
}
