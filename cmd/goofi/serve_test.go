// Service acceptance tests: the campaign daemon driven end-to-end over real
// HTTP — submit, stream, report — with its persisted rows checked
// byte-identical to the same campaign run through the goofi run CLI path,
// and pinned by a SHA-256 golden (refresh with go test -run Acceptance -update).
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// acceptanceSpec is the 200-experiment chaos campaign of the acceptance
// contract: flaky targets, retries armed, parallel workers.
func acceptanceSpec(tenant, name string) service.Spec {
	return service.Spec{
		Tenant:      tenant,
		Campaign:    name,
		Workload:    "bubblesort",
		Locations:   "chain:internal.core",
		Experiments: 200,
		Seed:        21,
		Workers:     2,
		Chaos:       "err=0.05,panic=0.01,seed=5",
	}
}

// startService brings up a campaign daemon over a fresh data dir and a real
// HTTP listener, torn down with the test.
func startService(t *testing.T, dataDir string) (*service.Server, *httptest.Server) {
	t.Helper()
	svc, err := service.New(service.Options{
		DataDir:         dataDir,
		Logger:          logger,
		MonitorInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc, srv
}

func experimentRows(t *testing.T, dbFile, campaign string) []dbase.ExperimentRow {
	t.Helper()
	db, err := dbase.OpenStore(dbFile)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, err := db.Experiments(campaign)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func digestRows(rows []dbase.ExperimentRow) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s|%s|%s|%s|%s|%s|%d|%d|%x\n",
			r.ExperimentName, r.ParentExperiment, r.CampaignName,
			r.ExperimentData, r.TerminationReason, r.Mechanism,
			r.Cycles, r.Iterations, r.StateVector)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestServiceAcceptance is the end-to-end service contract: a 200-experiment
// chaos campaign submitted over HTTP must stream coherent event frames,
// produce an analysis report whose taxonomy adds up, and persist rows
// byte-identical to the identical campaign executed through the goofi run
// CLI path — pinned by a golden digest.
func TestServiceAcceptance(t *testing.T) {
	// Baseline: the same campaign through configure/setup/run on a plain
	// database file.
	cliDB := dbPath(t)
	if err := run([]string{"configure", "-db", cliDB}); err != nil {
		t.Fatalf("configure: %v", err)
	}
	if err := run([]string{"setup", "-db", cliDB,
		"-campaign", "accept", "-workload", "bubblesort",
		"-locations", "chain:internal.core", "-n", "200", "-seed", "21"}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := run([]string{"run", "-db", cliDB, "-campaign", "accept", "-quiet",
		"-workers", "2", "-chaos", "err=0.05,panic=0.01,seed=5"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := experimentRows(t, cliDB, "accept")
	if len(want) != 201 { // ref + 200 experiments
		t.Fatalf("baseline rows = %d, want 201", len(want))
	}

	// Service path: same campaign, submitted over HTTP.
	dataDir := t.TempDir()
	_, srv := startService(t, dataDir)
	body, _ := json.Marshal(acceptanceSpec("acme", "accept"))
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d: %s", resp.StatusCode, out)
	}
	resp.Body.Close()

	// Stream the event frames to the final one.
	resp, err = http.Get(srv.URL + "/campaigns/acme/accept/events")
	if err != nil {
		t.Fatal(err)
	}
	var last obsv.CampaignEvent
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev obsv.CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		if frames > 0 && ev.Done < last.Done {
			t.Fatalf("done regressed: %d after %d", ev.Done, last.Done)
		}
		last = ev
		frames++
	}
	resp.Body.Close()
	if !last.Final || last.Done != 200 || last.Total != 200 {
		t.Fatalf("final frame = %+v (after %d frames)", last, frames)
	}
	if last.Retries == 0 {
		t.Fatal("chaos campaign finished without a single retry; chaos was not armed")
	}

	// The final frame precedes the job's terminal store flush by a moment;
	// wait for the status document to agree before asking for the report.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err = http.Get(srv.URL + "/campaigns/acme/accept")
		if err != nil {
			t.Fatal(err)
		}
		var st service.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("campaign state %s (%s)", st.Status, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Report over HTTP: every experiment classified.
	resp, err = http.Get(srv.URL + "/campaigns/acme/accept/report")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("report: %d: %s", resp.StatusCode, out)
	}
	var rep analysis.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Total+rep.Failed != 200 {
		t.Fatalf("report covers %d+%d of 200: %+v", rep.Total, rep.Failed, rep)
	}

	// The tenant database holds exactly the CLI baseline's rows.
	got := experimentRows(t, filepath.Join(dataDir, "acme", "accept.db"), "accept")
	if len(got) != len(want) {
		t.Fatalf("service rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d differs:\ncli:     %+v\nservice: %+v", i, want[i], got[i])
		}
	}

	// Pin the row digest so silent cross-release drift is caught even if
	// both paths drift together.
	digest := digestRows(got)
	golden := filepath.Join("testdata", "golden_campaign.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		wantDigest, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("golden missing (run with -update): %v", err)
		}
		if strings.TrimSpace(string(wantDigest)) != digest {
			t.Fatalf("campaign digest %s does not match golden %s",
				digest, strings.TrimSpace(string(wantDigest)))
		}
	}

	// The service client plumbing reads the same report.
	var buf strings.Builder
	addr := strings.TrimPrefix(srv.URL, "http://")
	if err := serviceReport(addr, "acme/accept", false, &buf); err != nil {
		t.Fatalf("goofi report -addr: %v", err)
	}
	if !strings.Contains(buf.String(), "accept") {
		t.Fatalf("service report output:\n%s", buf.String())
	}
}

// TestServiceShardedAcceptance runs the acceptance campaign split across 3
// shards and requires the exact same persisted rows as the unsharded service
// run — the shard-reassembly half of the acceptance criteria.
func TestServiceShardedAcceptance(t *testing.T) {
	dirPlain, dirSharded := t.TempDir(), t.TempDir()
	svcPlain, _ := startService(t, dirPlain)
	svcSharded, _ := startService(t, dirSharded)

	spec := acceptanceSpec("acme", "accept")
	if _, err := svcPlain.Submit(spec); err != nil {
		t.Fatal(err)
	}
	spec.Shards = 3
	if _, err := svcSharded.Submit(spec); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []*service.Server{svcPlain, svcSharded} {
		deadline := time.Now().Add(120 * time.Second)
		for {
			st, err := svc.Status("acme/accept")
			if err != nil {
				t.Fatal(err)
			}
			if st.Status == "done" {
				break
			}
			if st.Status == "failed" || time.Now().After(deadline) {
				t.Fatalf("campaign state %s (%s)", st.Status, st.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	want := experimentRows(t, filepath.Join(dirPlain, "acme", "accept.db"), "accept")
	got := experimentRows(t, filepath.Join(dirSharded, "acme", "accept.db"), "accept")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded service rows diverge from unsharded (rows %d vs %d)", len(got), len(want))
	}
}

// TestWatchReconnectFlappingServer feeds goofi watch a server that drops the
// connection after every two frames: the bounded-reconnect loop must ride
// through the flapping on the broadcaster's replay and still end on the
// final frame.
func TestWatchReconnectFlappingServer(t *testing.T) {
	events := obsv.NewBroadcaster()
	var mu sync.Mutex
	conns := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		conns++
		mu.Unlock()
		ch, cancel := events.Subscribe(16)
		defer cancel()
		fl, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for i := 0; i < 2; i++ { // then hang up mid-stream
			ev, ok := <-ch
			if !ok {
				return
			}
			enc.Encode(ev)
			if fl != nil {
				fl.Flush()
			}
			if ev.Final {
				return
			}
		}
	}))
	defer srv.Close()

	go func() {
		for seq := int64(0); seq < 7; seq++ {
			events.Publish(obsv.CampaignEvent{
				Campaign: "flap", Seq: seq, Done: int(seq), Total: 7,
			})
			time.Sleep(20 * time.Millisecond)
		}
		events.Publish(obsv.CampaignEvent{
			Campaign: "flap", Seq: 7, Done: 7, Total: 7, Final: true,
		})
		events.Close()
	}()

	var out bytes.Buffer
	if err := watchReconnect(srv.URL, 10, &out); err != nil {
		t.Fatalf("watchReconnect: %v", err)
	}
	mu.Lock()
	n := conns
	mu.Unlock()
	if n < 2 {
		t.Fatalf("server flapped but watch only connected %d time(s)", n)
	}
	if !strings.Contains(out.String(), "finished: 7/7") {
		t.Fatalf("watch output missing final summary:\n%s", out.String())
	}
}

// TestWatchReconnectGivesUp bounds the retry loop: a server that always
// refuses must not be retried forever.
func TestWatchReconnectGivesUp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	start := time.Now()
	err := watchReconnect(srv.URL, 2, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("give-up took %s", time.Since(start))
	}
}

// TestSubmitCLI drives the goofi submit client against a live daemon.
func TestSubmitCLI(t *testing.T) {
	svc, srv := startService(t, t.TempDir())
	addr := strings.TrimPrefix(srv.URL, "http://")
	if err := run([]string{"submit", "-addr", addr,
		"-tenant", "acme", "-campaign", "viaclient", "-workload", "bubblesort",
		"-locations", "chain:internal.core", "-n", "5", "-seed", "3"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := svc.Status("acme/viaclient")
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("campaign state %s (%s)", st.Status, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Bad submissions surface the server's error.
	if err := run([]string{"submit", "-addr", addr,
		"-tenant", "../evil", "-campaign", "x", "-workload", "bubblesort",
		"-locations", "chain:internal.core", "-n", "5"}); err == nil {
		t.Fatal("submit accepted an invalid tenant")
	}
}
