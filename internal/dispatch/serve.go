package dispatch

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Serve runs the dispatcher until ctx is canceled (SIGTERM/SIGINT in
// the CLI), then drains: admission and leasing stop (503 + Retry-After,
// parked lease polls included) while in-flight completions are still
// accepted for a grace period, so workers mid-push lose nothing. State
// is durable throughout — a SIGKILL instead of a drain costs only the
// unexpired leases, which the next start reclaims.
func Serve(ctx context.Context, opts Options) error {
	d, err := New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", d.opts.Addr)
	if err != nil {
		d.Close()
		return fmt.Errorf("dispatch: listen: %w", err)
	}
	return d.serve(ctx, ln)
}

// serve runs the HTTP surface and the reclaim ticker on ln until ctx is
// canceled, then drains and closes the dispatcher.
func (d *Dispatcher) serve(ctx context.Context, ln net.Listener) error {
	d.opts.Logf("fcdpm dispatchd: listening on http://%s (engine %s, lease TTL %s)",
		ln.Addr(), d.engine, d.opts.LeaseTTL)

	// Lease reclamation ticks a few times per TTL so a dead worker's
	// shards return to the queue promptly.
	reclaimCtx, stopReclaim := context.WithCancel(context.Background())
	defer stopReclaim()
	go func() {
		tick := d.opts.LeaseTTL / 3
		if tick < 200*time.Millisecond {
			tick = 200 * time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-reclaimCtx.Done():
				return
			case <-t.C:
				if n := d.ReclaimExpired(); n > 0 {
					d.opts.Logf("fcdpm dispatchd: reclaimed %d expired shard leases", n)
				}
			}
		}
	}()

	hs := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		d.Close()
		return fmt.Errorf("dispatch: %w", err)
	case <-ctx.Done():
	}
	d.drain()
	d.opts.Logf("fcdpm dispatchd: draining (leasing stopped, completions still accepted)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := hs.Shutdown(shutCtx)
	if cerr := d.Close(); cerr != nil {
		return cerr
	}
	if herr != nil {
		return fmt.Errorf("dispatch: shutdown: %w", herr)
	}
	d.opts.Logf("fcdpm dispatchd: stopped")
	return nil
}
