package checks

import (
	"context"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/serve"
)

// InProcessExecutor is the tests' executor: it runs cases against an
// in-process serve.Server behind an httptest listener, so `go test ./...`
// needs no hdlsd binary. Each case still gets a fresh server and a fresh
// store, so measurements match the subprocess executor's cold-start
// semantics; what it cannot reproduce is a daemon dying independently of
// the harness, which is exactly what DaemonExecutor exists to gate.
type InProcessExecutor struct {
	// Workers is the per-case worker pool (0 = GOMAXPROCS).
	Workers int
}

// Start boots a fresh in-process daemon for the case.
func (e *InProcessExecutor) Start(c *Case) (*Instance, error) {
	dir, err := os.MkdirTemp("", "hdlscheck-*")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewWithError(serve.Options{Workers: e.Workers, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &Instance{
		BaseURL: ts.URL,
		Stop: func() error {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			err := srv.Drain(ctx)
			os.RemoveAll(dir)
			return err
		},
	}, nil
}
