package main

// The served system under test: a server.Server with preregistered SBP
// tenants behind server.Handler on a loopback listener, and the HTTP
// client the load generator sends through.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/server"
)

// patients is the size of every tenant's SBP fixture.
const patients = 100

// serverConfig is the Config every run uses, with each limit written
// out so the run record shows the values in force.
func serverConfig(nproc int) server.Config {
	return server.Config{
		BaseSeed:          1,
		Shards:            1,
		MaxInFlight:       server.DefaultMaxInFlight,
		TenantMaxInFlight: server.DefaultTenantMaxInFlight,
		MaxWorkers:        nproc,
		MaxIterations:     server.DefaultMaxIterations,
		ResultCacheCap:    server.DefaultResultCacheCap,
		CacheMaxBytes:     server.DefaultCacheMaxBytes,
		BundleCacheCap:    mcdb.DefaultBundleCacheCap,
		PageSize:          server.DefaultPageSize,
		MaxTenants:        server.DefaultMaxTenants,
	}
}

// configRecord is the printable part of a server.Config.
func configRecord(c server.Config) map[string]any {
	return map[string]any{
		"BaseSeed": c.BaseSeed, "Shards": c.Shards, "MaxInFlight": c.MaxInFlight,
		"TenantMaxInFlight": c.TenantMaxInFlight, "MaxWorkers": c.MaxWorkers,
		"MaxIterations": c.MaxIterations, "ResultCacheCap": c.ResultCacheCap,
		"CacheMaxBytes": c.CacheMaxBytes, "CacheTTL": c.CacheTTL.String(),
		"BundleCacheCap": c.BundleCacheCap, "PageSize": c.PageSize, "MaxTenants": c.MaxTenants, "Trace": c.Trace,
	}
}

// fixture is one running server.
type fixture struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// spanHeader carries the client span's ID to the server-side span.
const spanHeader = "X-Bench-Span"

// startFixture builds the tenants' databases, starts the server on a
// loopback port and opens a client with at most conns connections.
// With a tracer, a span named "http" wraps each call into
// server.Handler.
func startFixture(tenants []string, conns int, cfg server.Config, tr *tracer) (*fixture, error) {
	srv := server.New(cfg)
	for _, name := range tenants {
		db, err := experiments.SBPDatabase(patients)
		if err != nil {
			return nil, fmt.Errorf("building tenant %s: %w", name, err)
		}
		srv.AddTenant(name, db)
	}
	h := srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
			if err != nil { // an untraced request
				inner.ServeHTTP(w, r)
				return
			}
			s := tr.start("http", parent, 0)
			inner.ServeHTTP(w, r)
			tr.end(s)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fixture{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the server and waits until it has stopped serving.
func (f *fixture) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serveErr := <-f.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	f.client.CloseIdleConnections()
	return err
}

// counter reads one metric from the server's registry.
func (f *fixture) counter(name string) int64 {
	return f.srv.Stats().Registry().Counter(name).Value()
}

// sender sends one phase's operations through a fixture and keeps the
// bookkeeping the answer checks need.
type sender struct {
	f       *fixture
	ops     []op
	kept    [][]byte       // answers of the operations in the oracle sample
	bufs    []bytes.Buffer // one per sender goroutine
	tr      *tracer
	book    *book
	reqBase uint64
}

func newSender(f *fixture, ops []op, senders int, b *book, tr *tracer, reqBase uint64) *sender {
	return &sender{f: f, ops: ops, kept: make([][]byte, len(ops)), bufs: make([]bytes.Buffer, senders),
		tr: tr, book: b, reqBase: reqBase}
}

// send is the sendFunc the loops call. An answer fails unless it is a
// 200 whose body, the cached flag aside, equals the first answer for
// its key.
func (s *sender) send(w, i int) bool {
	o := &s.ops[i]
	overlapped := s.book.begin(o.key)
	defer s.book.finish(o.key)
	sp := s.tr.start("loadgen.request", 0, s.reqBase+uint64(i))
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, s.f.url+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.book.fail("%s request: %v", o.class, err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if s.tr != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := s.f.client.Do(req)
	if err != nil {
		s.book.fail("%s request: %v", o.class, err)
		return false
	}
	buf := &s.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.tr.end(sp)
	if err != nil {
		s.book.fail("%s answer: %v", o.class, err)
		return false
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		s.book.fail("%s answer: status %d: %.200s", o.class, resp.StatusCode, body)
		return false
	}
	if o.check {
		s.kept[i] = append([]byte(nil), body...)
	}
	h, cached, ok := answerHash(body)
	if !ok {
		s.book.fail("%s answer has no cached field", o.class)
		return false
	}
	if !s.book.agree(o.key, h) {
		s.book.fail("%s answer differs from the first answer for its key", o.class)
		return false
	}
	if overlapped && !cached {
		s.book.duplicate()
	}
	return true
}

var cachedField = []byte(`"cached":`)

// answerHash hashes a response body with its cached flag left out, so
// a cached answer hashes equal to the computed answer it repeats.
func answerHash(body []byte) (h uint64, cached, ok bool) {
	j := bytes.Index(body, cachedField)
	if j < 0 {
		return 0, false, false
	}
	rest := body[j+len(cachedField):]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		cached, rest = true, rest[4:]
	case bytes.HasPrefix(rest, []byte("false")):
		rest = rest[5:]
	default:
		return 0, false, false
	}
	f := fnv.New64a()
	f.Write(body[:j])
	f.Write(rest)
	return f.Sum64(), cached, true
}

// book is the run-wide answer bookkeeping: the first answer seen for
// each key, the requests outstanding per key, and the failures.
type book struct {
	mu          sync.Mutex
	first       map[uint64]uint64 // guarded by mu
	outstanding map[uint64]int    // guarded by mu
	failures    []string          // guarded by mu; the first few
	duplicates  int               // guarded by mu
}

func newBook() *book {
	return &book{first: map[uint64]uint64{}, outstanding: map[uint64]int{}}
}

// begin marks a request for key outstanding and reports whether
// another one already was.
func (b *book) begin(key uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.outstanding[key]++
	return b.outstanding[key] > 1
}

func (b *book) finish(key uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.outstanding[key]--; b.outstanding[key] == 0 {
		delete(b.outstanding, key)
	}
}

// agree records h as key's first answer, or reports whether h equals
// the first answer recorded.
func (b *book) agree(key, h uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.first[key]; ok {
		return prev == h
	}
	b.first[key] = h
	return true
}

func (b *book) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *book) duplicate() {
	b.mu.Lock()
	b.duplicates++
	b.mu.Unlock()
}

func (b *book) duplicatesNow() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.duplicates
}

func (b *book) failuresNow() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.failures...)
}
