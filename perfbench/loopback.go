package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"

	"repro/internal/serve"
)

// hosted is a server listening on loopback.
type hosted struct {
	srv    *serve.Server
	traced *tracedHandler
	http   *http.Server
	url    string
	done   chan error
}

// listen serves srv on a fresh loopback listener, behind a tracedHandler
// so a traced phase can switch span recording on.
func listen(srv *serve.Server) (*hosted, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hosted{srv: srv, traced: &tracedHandler{inner: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	h.http = &http.Server{Handler: h.traced}
	go func() { h.done <- h.http.Serve(ln) }()
	return h, nil
}

// close stops the server and waits for its serve loop to return.
func (h *hosted) close() {
	h.http.Close()
	<-h.done
}

// newConn returns an HTTP client holding at most one connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// readBody reads and closes a response body into buf and reports a non-200
// status as an error.
func readBody(resp *http.Response, buf []byte) ([]byte, error) {
	defer resp.Body.Close()
	b := bytes.NewBuffer(buf[:0])
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return buf, err
	}
	if resp.StatusCode != http.StatusOK {
		return b.Bytes(), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b.Bytes()))
	}
	return b.Bytes(), nil
}
