// goofi serve: the campaign-as-a-service daemon. It accepts campaign
// submissions from many tenants over a JSON/HTTP API, runs them behind a
// bounded-concurrency queue — each tenant isolated in its own database
// directory, one file per campaign — and drains gracefully on SIGTERM:
// in-flight campaigns are saved and queued ones persisted, so a restarted
// daemon resumes exactly where it stopped.
//
//	goofi serve -addr :8080 -data ./goofi-data
//	curl -X POST localhost:8080/campaigns -d '{"tenant":"acme","campaign":"c1",
//	    "workload":"bubblesort","locations":"chain:internal.core",
//	    "experiments":200,"seed":7}'
//	goofi watch -campaign acme/c1 localhost:8080
//
// goofi submit is the matching client for scripted submissions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"goofi/internal/service"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (\":0\" picks a free port)")
	dataDir := fs.String("data", "goofi-data", "service data directory (one subdirectory per tenant)")
	queueLimit := fs.Int("queue", 8, "queued campaigns beyond the running ones before 429")
	concurrency := fs.Int("concurrency", 2, "campaigns executing at once")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long SIGTERM waits for running campaigns to stop and save")
	if err := fs.Parse(args); err != nil {
		return err
	}
	svc, err := service.New(service.Options{
		DataDir:     *dataDir,
		QueueLimit:  *queueLimit,
		Concurrency: *concurrency,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address line is machine-readable on purpose: test harnesses
	// (and cmd/crashtest -serve) start the daemon on ":0" and parse it.
	fmt.Printf("goofi serve listening on %s\n", ln.Addr())
	logger.Info("campaign service up", "addr", ln.Addr().String(), "data", *dataDir)

	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		return err
	}
	stop()
	logger.Info("signal received; draining", "timeout", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		srv.Close()
		return fmt.Errorf("serve: %w", err)
	}
	srv.Close()
	logger.Info("drained; campaigns saved and queue persisted")
	return nil
}

// cmdSubmit posts one campaign spec to a running daemon, either from a JSON
// file (-spec) or assembled from flags mirroring goofi setup/run.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "", "service address (host:port)")
	specPath := fs.String("spec", "", "JSON spec file (\"-\" for stdin); overrides the field flags")
	tenant := fs.String("tenant", "", "tenant name")
	campaign := fs.String("campaign", "", "campaign name")
	workloadName := fs.String("workload", "", "workload name")
	locations := fs.String("locations", "", "fault-location filter")
	n := fs.Int("n", 0, "number of experiments")
	seed := fs.Int64("seed", 0, "campaign seed")
	workers := fs.Int("workers", 0, "worker count: how many experiments run at once")
	chaos := fs.String("chaos", "", "chaos spec wrapping every target")
	retries := fs.Int("retries", 4, "retry a 429 (queue full) response this many times, honouring Retry-After")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("submit: -addr required")
	}
	var body []byte
	var err error
	switch {
	case *specPath == "-":
		body, err = io.ReadAll(os.Stdin)
	case *specPath != "":
		body, err = os.ReadFile(*specPath)
	default:
		body, err = json.Marshal(service.Spec{
			Tenant: *tenant, Campaign: *campaign, Workload: *workloadName,
			Locations: *locations, Experiments: *n, Seed: *seed,
			Workers: *workers, Chaos: *chaos,
		})
	}
	if err != nil {
		return err
	}
	out, err := postCampaign(serviceURL(*addr)+"/campaigns", body, *retries)
	if err != nil {
		return err
	}
	fmt.Print(string(out))
	return nil
}

// postCampaign submits a campaign spec, retrying a bounded number of times
// when the service sheds load with 429. The wait honours the Retry-After
// header when present and otherwise backs off exponentially from a second;
// jitter desynchronises scripted submitters that all hit a full queue at
// once. Any other non-202 status fails immediately.
func postCampaign(url string, body []byte, retries int) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
		out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			return out, nil
		case resp.StatusCode != http.StatusTooManyRequests || attempt >= retries:
			return nil, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(out)))
		}
		wait := retryAfter(resp.Header.Get("Retry-After"), attempt)
		logger.Warn("queue full; retrying", "attempt", attempt+1, "of", retries, "wait", wait)
		time.Sleep(wait)
	}
}

// retryAfter turns a Retry-After header (delay-seconds form) into a wait,
// falling back to exponential backoff from 1s, capped at 30s, with up to 25%
// random jitter on top.
func retryAfter(header string, attempt int) time.Duration {
	base := time.Second << min(attempt, 5)
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		base = time.Duration(secs) * time.Second
		if base == 0 {
			base = time.Second
		}
	}
	if base > 30*time.Second {
		base = 30 * time.Second
	}
	return base + time.Duration(rand.Int64N(int64(base)/4+1))
}

// serviceURL normalises a host:port into a base URL.
func serviceURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}
