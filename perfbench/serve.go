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
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// Serve-mixed request counts per client and pass.
const (
	nInteractive = 16000
	nBulk        = 400
)

// server is one in-process slserve instance behind a loopback listener.
type server struct {
	srv     *serve.Server
	http    *http.Server
	url     string
	dir     string
	served  chan error
	handler *timedHandler // nil unless traced
}

// startServer boots serve.New at scale small with a disk cache in a
// fresh empty directory under workDir and serves it on a loopback
// listener; the listener is bound before startServer returns, so the
// first request needs no readiness probe. With timed set, the mounted
// handler records each request's in-handler duration.
func startServer(workDir string, workers, requests int, timed bool) (*server, error) {
	dir, err := os.MkdirTemp(workDir, "cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{ScaleName: "small", Workers: workers, CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, dir: dir, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	var h http.Handler = srv
	if timed {
		s.handler = &timedHandler{next: srv, dur: make([]atomic.Int64, requests)}
		h = s.handler
	}
	s.http = &http.Server{Handler: h}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the service, closes the listener, waits for the serving
// goroutine and removes the cache directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.srv.Drain(ctx)
	herr := s.http.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(derr, herr, os.RemoveAll(s.dir))
}

// timedHandler times the mounted service handler per request, indexed
// by the X-Bench-Req header the clients send.
type timedHandler struct {
	next http.Handler
	dur  []atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.next.ServeHTTP(w, r)
	if id, err := strconv.Atoi(r.Header.Get("X-Bench-Req")); err == nil && id >= 0 && id < len(t.dur) {
		t.dur[id].Store(int64(time.Since(t0)))
	}
}

// servePass is one timed run of serve-mixed traffic.
type servePass struct {
	mu          sync.Mutex
	total       time.Duration
	interDone   time.Duration // when each client received its last answer
	bulkDone    time.Duration
	attempted   int
	failed      int
	rejected    int // 429/503/504 answers
	cells       int // rows answered, batch cells counted separately
	hit, cold   []float64
	hitID       []int // request ids of hit samples (handler pairing)
	coldID      []int
	sources     map[string]int
	handlerDur  []atomic.Int64 // traced only
	firstByCell map[cellID]rowPayload
}

// cellID names one served population: a key, observed or not.
type cellID struct {
	digest   string
	observed bool
}

// rowPayload is the part of a row that must not depend on the cache
// tier that answered.
type rowPayload struct {
	key         experiments.Key
	summary     []byte
	errText     string
	percentiles []byte
}

// wireRow mirrors serve.Row for decoding.
type wireRow struct {
	Digest      string          `json:"digest"`
	Source      string          `json:"source"`
	Error       string          `json:"error"`
	Summary     json.RawMessage `json:"summary"`
	Percentiles json.RawMessage `json:"percentiles"`
}

// clientReq is a prepared HTTP request.
type clientReq struct {
	id      int
	path    string
	body    []byte
	keys    []experiments.Key
	digests []string
	observe bool
	single  bool
}

// prepare renders a client's requests before timing starts.
func prepare(tr traffic, reqs []request, firstID int, single bool) []clientReq {
	out := make([]clientReq, len(reqs))
	for i, r := range reqs {
		keys := make([]experiments.Key, len(r.keys))
		digests := make([]string, len(r.keys))
		for j, idx := range r.keys {
			keys[j] = tr.pop[idx]
			digests[j] = keys[j].Digest()
		}
		cr := clientReq{id: firstID + i, keys: keys, digests: digests, observe: r.observe, single: single}
		if single {
			cr.path = "/v1/cell"
			if r.observe {
				cr.path += "?observe=1"
			}
			cr.body = keys[0].CanonicalJSON()
		} else {
			cells := make([]json.RawMessage, len(keys))
			for j, k := range keys {
				cells[j] = k.CanonicalJSON()
			}
			cr.path = "/v1/cells"
			cr.body, _ = json.Marshal(map[string]any{"cells": cells})
		}
		out[i] = cr
	}
	return out
}

// runClient sends reqs one after another over a single connection,
// handing each answer to p.record as it arrives.
func runClient(url, tenant string, reqs []clientReq, p *servePass, chk *checker) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr}
	for _, r := range reqs {
		req, err := http.NewRequest(http.MethodPost, url+r.path, bytes.NewReader(r.body))
		if err != nil {
			p.record(r, 0, 0, nil, err, chk)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		req.Header.Set("X-Bench-Req", strconv.Itoa(r.id))
		t0 := time.Now()
		resp, err := cl.Do(req)
		if err != nil {
			p.record(r, 0, 0, nil, err, chk)
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := ms(time.Since(t0))
		var body struct {
			Rows []wireRow `json:"rows"`
		}
		if err == nil && resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(data, &body)
		}
		p.record(r, lat, resp.StatusCode, body.Rows, err, chk)
	}
}

// runServePass boots a cold server, runs both tenants' clients
// concurrently to completion and checks every response.
func runServePass(tr traffic, workDir string, workers int, timed bool, chk *checker) (*servePass, error) {
	inter := prepare(tr, tr.interactive, 0, true)
	bulk := prepare(tr, tr.bulk, len(inter), false)
	s, err := startServer(workDir, workers, len(inter)+len(bulk), timed)
	if err != nil {
		return nil, err
	}
	p := &servePass{sources: map[string]int{}, firstByCell: map[cellID]rowPayload{}}
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() {
		defer wg.Done()
		runClient(s.url, "interactive", inter, p, chk)
		p.interDone = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		runClient(s.url, "bulk", bulk, p, chk)
		p.bulkDone = time.Since(start)
	}()
	wg.Wait()
	p.total = time.Since(start)
	if s.handler != nil {
		p.handlerDur = s.handler.dur
	}
	if err := s.stop(); err != nil {
		return p, fmt.Errorf("serve-mixed: stopping the server: %w", err)
	}
	return p, nil
}

// record classifies and checks one answer.
func (p *servePass) record(r clientReq, lat float64, status int, rows []wireRow, err error, chk *checker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil || status != http.StatusOK {
		p.failed++
		switch status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			p.rejected++
		}
		return
	}
	ok := len(rows) == len(r.keys)
	computed := false
	for j := 0; ok && j < len(r.keys); j++ {
		row := rows[j]
		p.cells++
		p.sources[row.Source]++
		computed = computed || row.Source == "computed"
		ok = p.checkRow(r.keys[j], r.digests[j], r.observe, row, chk)
	}
	if !ok {
		p.failed++
		return
	}
	if r.single {
		if computed {
			p.cold = append(p.cold, lat)
			p.coldID = append(p.coldID, r.id)
		} else {
			p.hit = append(p.hit, lat)
			p.hitID = append(p.hitID, r.id)
		}
	}
}

// checkRow verifies one row: it names the requested cell, its payload is
// byte-identical to the first row served for that cell, and the first
// row matches the reference outcome.
func (p *servePass) checkRow(k experiments.Key, digest string, observed bool, row wireRow, chk *checker) bool {
	id := cellID{digest: digest, observed: observed}
	if row.Digest != id.digest || (len(row.Summary) == 0) == (row.Error == "") {
		chk.failf("%s: malformed row", k.Label())
		return false
	}
	first, seen := p.firstByCell[id]
	if !seen {
		p.firstByCell[id] = rowPayload{key: k, summary: row.Summary, errText: row.Error, percentiles: row.Percentiles}
		return chk.check("small", k, observed, row.Summary, row.Error)
	}
	if !bytes.Equal(first.summary, row.Summary) || first.errText != row.Error || !bytes.Equal(first.percentiles, row.Percentiles) {
		chk.failf("%s (observed=%v): response differs from the first response for the key (source %s)", k.Label(), observed, row.Source)
		return false
	}
	return true
}
