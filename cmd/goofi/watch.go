// goofi watch: an in-terminal live view of a running campaign, fed by the
// /campaign/events JSON-lines stream the -debug-addr server exposes. Start a
// campaign with `goofi run ... -debug-addr :6060` and, from another
// terminal, `goofi watch 127.0.0.1:6060`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"goofi/internal/obsv"
)

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	addr := fs.String("addr", "", "debug server address of a goofi run -debug-addr, or a goofi serve address with -campaign")
	campaign := fs.String("campaign", "", "watch tenant/name on a goofi serve daemon instead of a -debug-addr stream")
	retries := fs.Int("retries", 5, "consecutive reconnect attempts before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" && fs.NArg() > 0 {
		*addr = fs.Arg(0)
	}
	if *addr == "" {
		return fmt.Errorf("watch: address required: goofi watch HOST:PORT")
	}
	path := "/campaign/events"
	if *campaign != "" {
		path = "/campaigns/" + *campaign + "/events"
	}
	return watchReconnect(serviceURL(*addr)+path, *retries, os.Stdout)
}

// watchReconnect follows an event stream across connection failures: each
// reconnect resubscribes to the broadcaster, which replays the latest frame
// — so no terminal state can be missed — and already-rendered frames are
// deduplicated by sequence number. Failures are retried with exponential
// backoff up to maxRetries consecutive attempts; any successfully received
// frame resets the budget.
func watchReconnect(url string, maxRetries int, w io.Writer) error {
	lastSeq := int64(-1)
	attempts := 0
	backoff := 200 * time.Millisecond
	for {
		last, seen, err := watchOnce(url, lastSeq, w)
		if seen {
			lastSeq = last.Seq
			attempts = 0
			backoff = 200 * time.Millisecond
		}
		if err == nil && last.Final {
			return nil
		}
		attempts++
		if attempts > maxRetries {
			if err != nil {
				return fmt.Errorf("watch: giving up after %d reconnects: %w", maxRetries, err)
			}
			return fmt.Errorf("watch: giving up after %d reconnects: stream keeps ending before the final frame", maxRetries)
		}
		logger.Warn("watch: stream interrupted; reconnecting",
			"attempt", attempts, "backoff", backoff, "err", err)
		time.Sleep(backoff)
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// watchOnce opens the stream once and renders frames newer than lastSeq.
func watchOnce(url string, lastSeq int64, w io.Writer) (obsv.CampaignEvent, bool, error) {
	resp, err := http.Get(url)
	if err != nil {
		return obsv.CampaignEvent{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return obsv.CampaignEvent{}, false,
			fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return watchEventsFrom(resp.Body, w, lastSeq)
}

// watchEvents renders the event stream as a single live-updating line,
// returning the last event seen. Factored out of cmdWatch so tests can feed
// it a recorded stream.
func watchEvents(r io.Reader, w io.Writer) (obsv.CampaignEvent, error) {
	last, seen, err := watchEventsFrom(r, w, -1)
	if err != nil {
		return last, err
	}
	if !seen {
		return last, fmt.Errorf("no events received")
	}
	return last, nil
}

// watchEventsFrom renders frames with Seq greater than afterSeq — stale
// frames (the broadcaster's replay of something already rendered before a
// reconnect) are skipped silently. It reports whether any frame at all was
// received, so the reconnect loop can tell a dead server from a quiet one.
func watchEventsFrom(r io.Reader, w io.Writer, afterSeq int64) (obsv.CampaignEvent, bool, error) {
	var last obsv.CampaignEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	seen := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev obsv.CampaignEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return last, seen, fmt.Errorf("malformed event: %w", err)
		}
		if ev.Seq <= afterSeq && !ev.Final {
			continue
		}
		last, seen = ev, true
		fmt.Fprintf(w, "\r%s", watchLine(ev))
		if ev.Final {
			fmt.Fprintln(w)
			fmt.Fprint(w, watchSummary(ev))
			break
		}
	}
	if err := sc.Err(); err != nil {
		return last, seen, err
	}
	if seen && !last.Final {
		fmt.Fprintln(w)
	}
	return last, seen, nil
}

// watchLine is the live view: progress bar, rate, ETA, coverage-so-far and
// the fault-tolerance counters.
func watchLine(ev obsv.CampaignEvent) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%-30s] %d/%d", ev.Campaign, bar(ev.Done, ev.Total, 30), ev.Done, ev.Total)
	if ev.RatePerSec > 0 {
		fmt.Fprintf(&sb, "  %.1f/s", ev.RatePerSec)
	}
	if ev.EtaNs > 0 {
		fmt.Fprintf(&sb, "  eta %s", time.Duration(ev.EtaNs).Round(100*time.Millisecond))
	}
	if ev.Done > 0 {
		fmt.Fprintf(&sb, "  detected %d (%.1f%%)", ev.Detected, 100*float64(ev.Detected)/float64(ev.Done))
	}
	if ev.Retries > 0 || ev.Hangs > 0 || ev.Quarantined > 0 {
		fmt.Fprintf(&sb, "  [retries=%d hangs=%d quarantined=%d]", ev.Retries, ev.Hangs, ev.Quarantined)
	}
	if ev.LastOutcome != "" {
		fmt.Fprintf(&sb, "  %s", ev.LastOutcome)
	}
	// Pad so a shorter line fully overwrites its longer predecessor.
	if sb.Len() < 110 {
		sb.WriteString(strings.Repeat(" ", 110-sb.Len()))
	}
	return sb.String()
}

// watchSummary is printed once after the final frame.
func watchSummary(ev obsv.CampaignEvent) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign %q finished: %d/%d experiments in %s",
		ev.Campaign, ev.Done, ev.Total, time.Duration(ev.ElapsedNs).Round(time.Millisecond))
	if ev.Skipped > 0 {
		fmt.Fprintf(&sb, " (%d resumed)", ev.Skipped)
	}
	fmt.Fprintln(&sb)
	if ev.Retries > 0 || ev.Hangs > 0 || ev.Quarantined > 0 {
		fmt.Fprintf(&sb, "  fault tolerance: %d retries, %d hangs, %d targets quarantined\n",
			ev.Retries, ev.Hangs, ev.Quarantined)
	}
	return sb.String()
}
