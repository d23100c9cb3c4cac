package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"distal"
	"distal/internal/serve"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// env is one in-process server over loopback plus the single keep-alive
// client connection the closed loop drives it through.
type env struct {
	sess  *distal.Session
	srv   *http.Server
	done  chan struct{}
	conns atomic.Int64 // connections the server accepted
	cl    *client
}

// startEnv starts serve.New over a fresh session of the workload's machine
// on a loopback port. wrap, when set, wraps the server's handler (tests use
// it to corrupt responses).
func startEnv(w *workload, wrap func(http.Handler) http.Handler) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	e := &env{sess: w.newSession(), done: make(chan struct{})}
	var h http.Handler = serve.New(e.sess, serve.Config{LogWriter: io.Discard})
	if wrap != nil {
		h = wrap(h)
	}
	e.srv = &http.Server{Handler: h, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			e.conns.Add(1)
		}
	}}
	go func() {
		defer close(e.done)
		e.srv.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed once close runs
	}()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	e.cl = &client{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tr}}
	return e, nil
}

// close stops the server and waits for its serve loop to exit.
func (e *env) close() {
	e.cl.hc.CloseIdleConnections()
	e.srv.Close()
	<-e.done
}

// client is the benchmark's closed-loop client. It reads each response
// body whole before decoding it, so a decode span times the codec alone
// and not the server's streaming.
type client struct {
	base string
	hc   *http.Client
	req  bytes.Buffer
	resp bytes.Buffer
}

// post sends body and reads the whole response, failing on a non-2xx
// status with the server's error body in the message.
func (c *client) post(ctx context.Context, path, contentType string, body []byte) (http.Header, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	c.resp.Reset()
	if _, err := c.resp.ReadFrom(resp.Body); err != nil {
		return nil, nil, fmt.Errorf("reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s returned %d: %s", path, resp.StatusCode, strings.TrimSpace(c.resp.String()))
	}
	return resp.Header, c.resp.Bytes(), nil
}

// run sends one /v1/run request of the case and decodes every output
// frame. simGFlops is the modeled GFLOP/s the response reports. Spans go
// to rec under parent (a nil rec records nothing).
func (c *client) run(ctx context.Context, rc *runCase, rec *recorder, op, parent int) (outs []*tensor.Dense, simGFlops float64, err error) {
	c.req.Reset()
	contentType := "application/json"
	if rc.framed {
		contentType = wire.ContentTypeRun
		sp := rec.start("wire.encode", op, parent)
		err = wire.WriteJSONSection(&c.req, rc.envelope)
		if err == nil {
			err = wire.EncodeFrames(&c.req, rc.frames...)
		}
		rec.end(sp, err)
		if err != nil {
			return nil, 0, err
		}
	} else {
		c.req.Write(rc.envelope)
	}
	h, body, err := c.post(ctx, "/v1/run", contentType, c.req.Bytes())
	if err != nil {
		return nil, 0, err
	}
	if rc.batched {
		status := h.Get(wire.HeaderBatchStatus)
		if want := strings.TrimSuffix(strings.Repeat(wire.BatchStatusOK+",", rc.batch), ","); status != want {
			return nil, 0, fmt.Errorf("batch status %q, want %q", status, want)
		}
	}
	sp := rec.start("wire.decode", op, parent)
	outs, err = decodeFrames(body, rc.batch, elemCount(rc.outShape))
	rec.end(sp, err)
	if err != nil {
		return nil, 0, err
	}
	simGFlops, err = strconv.ParseFloat(h.Get(wire.HeaderGFlops), 64)
	if err != nil {
		return nil, 0, fmt.Errorf("response %s header: %w", wire.HeaderGFlops, err)
	}
	return outs, simGFlops, nil
}

// decodeFrames decodes exactly n frames of elems elements from body.
func decodeFrames(body []byte, n, elems int) ([]*tensor.Dense, error) {
	r := bytes.NewReader(body)
	outs := make([]*tensor.Dense, n)
	for i := range outs {
		t, err := wire.DecodeLimit(r, elems)
		if err != nil {
			return nil, fmt.Errorf("decoding output frame %d: %w", i, err)
		}
		outs[i] = t
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d bytes after the last output frame", r.Len())
	}
	return outs, nil
}

// execute sends one simulate-only /v1/execute request.
func (c *client) execute(ctx context.Context, req distal.Request) (*serve.ExecuteResponse, error) {
	body, err := json.Marshal(serve.ExecuteRequest{Stmt: req.Stmt, Shapes: req.Shapes, Formats: req.Formats, Schedule: req.Schedule})
	if err != nil {
		return nil, err
	}
	_, raw, err := c.post(ctx, "/v1/execute", "application/json", body)
	if err != nil {
		return nil, err
	}
	var resp serve.ExecuteResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decoding /v1/execute response: %w", err)
	}
	return &resp, nil
}

// send issues one request of the workload — the run case, or plan-cold's
// request for sched — and checks its answer against the reference. It
// returns the modeled GFLOP/s the response reports and, on failure, how
// many of the request's ops failed.
func (w *workload) send(ctx context.Context, cl *client, rec *recorder, op, parent int, sched string) (sim float64, bad int, err error) {
	if w.cold != nil {
		resp, err := cl.execute(ctx, w.cold.request(sched))
		if err == nil {
			err = w.cold.check(resp, sched)
		}
		if err != nil {
			return 0, 1, err
		}
		return resp.GFlopsPerSec, 0, nil
	}
	rc := w.run
	outs, sim, err := cl.run(ctx, rc, rec, op, parent)
	if err != nil {
		return 0, rc.batch, err
	}
	if bad := checkOutputs(outs, rc.refs); bad > 0 {
		return 0, bad, fmt.Errorf("%d of %d outputs differ from the reference", bad, rc.batch)
	}
	return sim, 0, nil
}

// checkOutputs compares every returned instance with its reference and
// returns how many disagree (shape or any element beyond 1e-9).
func checkOutputs(outs, refs []*tensor.Dense) int {
	bad := 0
	for i, ref := range refs {
		if i >= len(outs) || outs[i] == nil || !outs[i].EqualWithin(ref, 1e-9) {
			bad++
		}
	}
	return bad
}

// check validates one /v1/execute answer against the benchmark's own FLOP
// count. The modeled FLOPs are the statement's exactly when the schedule
// keeps every reduction on one processor; otherwise they add the folds
// that combine partial sums, at most reductionFolds of them. A cold
// request must really compile (a cache hit would mean the workload stopped
// measuring the compiler) and model a positive time.
func (c *coldCase) check(resp *serve.ExecuteResponse, sched string) error {
	lo, hi := c.stmtFlops, c.stmtFlops+c.maxFolds[sched]
	switch {
	case resp.Flops < lo || resp.Flops > hi || (hi == lo && resp.Flops != lo):
		return fmt.Errorf("response flops %g, computed %g plus at most %g reduction folds", resp.Flops, c.stmtFlops, c.maxFolds[sched])
	case resp.TimeS <= 0:
		return fmt.Errorf("response time_s %g is not positive", resp.TimeS)
	case resp.Cached:
		return errors.New("plan-cold request was a plan-cache hit")
	}
	return nil
}
