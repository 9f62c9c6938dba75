package server

import (
	"net/http"
	"time"
)

// Config shapes the request lifecycle of the HTTP service. The zero
// value of any field selects the default shown on the field; to
// disable a timeout explicitly, set it negative (it becomes 0 in the
// http.Server, i.e. no timeout).
//
// The defaults assume short JSON requests against an in-memory index:
// headers and bodies arrive quickly or the client is misbehaving, while
// responses to large batches may take a while to compute and stream.
type Config struct {
	// ReadHeaderTimeout bounds reading a request's headers (default 5s).
	// Always set on the server: without it a slow-header client holds
	// its connection (and a server goroutine) forever.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading the whole request, body included
	// (default 30s).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing the response, measured from the end
	// of the headers (default 60s — batch responses can be large).
	WriteTimeout time.Duration
	// IdleTimeout bounds how long a keep-alive connection may sit idle
	// between requests (default 2m).
	IdleTimeout time.Duration
	// RequestTimeout is the deadline of a /v1/batch request: its
	// Search stops between probe blocks this long after it starts
	// (default 30s). A batch is the one request shape that reads its
	// context while it runs, so no other route arms a deadline.
	RequestTimeout time.Duration
}

// DefaultConfig returns the default lifecycle configuration.
func DefaultConfig() Config {
	return Config{
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		RequestTimeout:    30 * time.Second,
	}
}

// withDefaults resolves zero fields to defaults and negative fields to
// "disabled" (zero).
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	c.ReadHeaderTimeout = resolve(c.ReadHeaderTimeout, d.ReadHeaderTimeout)
	c.ReadTimeout = resolve(c.ReadTimeout, d.ReadTimeout)
	c.WriteTimeout = resolve(c.WriteTimeout, d.WriteTimeout)
	c.IdleTimeout = resolve(c.IdleTimeout, d.IdleTimeout)
	c.RequestTimeout = resolve(c.RequestTimeout, d.RequestTimeout)
	return c
}

// maxHeaderBytes caps request header size.
const maxHeaderBytes = 1 << 20

func resolve(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// HTTPServer returns an http.Server for addr wired to this Server's
// handler with the configured lifecycle timeouts. Callers own the
// returned server: run it with Serve/ListenAndServe and drain it with
// Shutdown (in-flight requests complete; their contexts are not
// canceled by Shutdown).
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}
