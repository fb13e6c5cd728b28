package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"purec/internal/serve"
)

// daemon is an in-process purecd: a serve.Server behind a real loopback
// listener and http.Server, which is what cmd/purecd runs minus flag
// parsing and signal handling.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	served chan error
}

func startDaemon(opts serve.Options) (*daemon, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	return listen(srv, srv.Handler())
}

// listen serves h on a fresh loopback port; srv may be nil when h is not
// a purecd handler (the client-floor probe).
func listen(srv *serve.Server, h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String() + "/run",
		served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the server and waits for its accept loop to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// reply is what the client saw of one request.
type reply struct {
	dur   time.Duration
	build string
	pool  string
	// fail is empty when the response matched the oracle.
	fail string
}

// client is one keep-alive connection's worth of closed-loop caller.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// run posts p and checks the response against the oracle. The duration
// runs from send to the last body byte and the trailers.
func (c *client) run(p *program) reply {
	start := time.Now()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(p.body))
	if err != nil {
		return reply{dur: time.Since(start), fail: "transport: " + err.Error()}
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{
		dur:   time.Since(start),
		build: resp.Header.Get("X-Purecd-Build"),
		pool:  resp.Header.Get("X-Purecd-Pool"),
	}
	switch {
	case err != nil:
		r.fail = "body: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		r.fail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	default:
		r.fail = p.mismatch(out, resp.Trailer.Get("X-Purecd-Ret"))
	}
	return r
}

// mismatch compares a response with the oracle's stdout and return
// value; empty means equal.
func (p *program) mismatch(out []byte, ret string) string {
	if string(out) != p.wantOut {
		return fmt.Sprintf("stdout %q, oracle %q", out, p.wantOut)
	}
	if ret != strconv.FormatInt(p.wantRet, 10) {
		return fmt.Sprintf("return value %q, oracle %d", ret, p.wantRet)
	}
	return ""
}
