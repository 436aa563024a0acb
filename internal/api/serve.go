package api

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"
)

// LogJSON makes the process log one JSON record per line on w; the two
// servers call it first thing. Every record in the module has one shape,
// slog.<Level>("<package>.<event>", attrs...): the message is the stable
// event name, filed here under "event", and everything that varies is a
// typed attr (world, site, action, n, path, err, stack). Libraries
// log through slog.Default(), so a process that never calls this (cmd/serve,
// tests) prints the same records as text.
func LogJSON(w io.Writer) {
	slog.SetDefault(slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.MessageKey {
				a.Key = "event"
			}
			return a
		},
	})))
}

// ServeUntilShutdown serves handler on ln until ctx is canceled, then
// drains in-flight requests for the grace window; requests still running
// after it are aborted by closing their connections, which cancels their
// request contexts down into the per-round training loops. It returns
// nil on a clean drain, the listener error if serving fails first, or a
// drain-expiry error. Both cmd/apiserver and cmd/gateway route their
// serve-and-drain tail through here so the shutdown semantics cannot
// diverge.
func ServeUntilShutdown(ctx context.Context, ln net.Listener, handler http.Handler, grace time.Duration) error {
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	slog.Info("api.drain", slog.Duration("grace", grace))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Grace expired with requests still burning epochs: close the
		// connections so their contexts cancel the per-round loops.
		srv.Close()
		return fmt.Errorf("drain window expired: %w", err)
	}
	return nil
}
