// crashtest -serve: the drain/restart harness for the campaign service.
//
// Where the default mode SIGKILLs a raw WAL store, this mode exercises the
// graceful path the goofi serve daemon promises: a serve child is started on
// a private data directory, two campaigns are submitted over HTTP (a big one
// that starts running and a second that queues behind Concurrency=1), and
// the parent SIGTERMs the daemon at a seeded random point. The daemon must
// drain — save the interrupted campaign's file, persist the queue — and exit
// zero. The parent then inspects the tenant stores offline (every persisted
// experiment row must be bit-identical to the no-crash reference run: the
// saved image lost nothing logged and holds nothing corrupt), restarts the
// daemon on the same directory, and polls both campaigns to completion. The
// resumed stores must match the reference runs row for row, and a final
// clean drain must leave no queue file behind.
//
// Widths are rotated in (campaign A runs with shards=2 every third
// iteration, campaign B with shards=3 every other), so interruption and
// resume at several worker counts ride through the same drain/restart
// oracle. The SIGTERM horizon of each width pair is measured once, from one
// undisturbed serve run, as the other modes measure theirs.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/service"
	"goofi/internal/vfs"
)

// serveEnv carries the serve child's JSON config; its presence switches the
// binary into campaign-service daemon mode.
const serveEnv = "GOOFI_CRASHTEST_SERVE"

// serveConfig is what the parent hands the serve child through serveEnv.
type serveConfig struct {
	DataDir     string `json:"dataDir"`
	Queue       int    `json:"queue"`
	Concurrency int    `json:"concurrency"`
}

// runServeChild is the daemon side: a campaign service on a loopback port,
// announced on stdout, drained on SIGTERM. Exit zero means the drain
// completed — checkpoints flushed, queue persisted.
func runServeChild(cfgJSON string) int {
	var cfg serveConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "serve child: bad config:", err)
		return 1
	}
	svc, err := service.New(service.Options{
		DataDir:         cfg.DataDir,
		QueueLimit:      cfg.Queue,
		Concurrency:     cfg.Concurrency,
		MonitorInterval: 20 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve child:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve child:", err)
		return 1
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "serve child: drain:", err)
		srv.Close()
		return 1
	}
	srv.Close()
	return 0
}

// serveProc is a running serve child as seen from the parent.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	exited chan error
}

// startServe forks a serve child on dataDir and waits for its ADDR line.
func startServe(exe, dataDir string) (*serveProc, error) {
	cfg, err := json.Marshal(serveConfig{DataDir: dataDir, Queue: 8, Concurrency: 1})
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serveEnv+"="+string(cfg))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serveProc{cmd: cmd, exited: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
				addrc <- a
				break
			}
		}
		// Drain the rest of stdout so the child never blocks on the pipe.
		for sc.Scan() {
		}
		close(addrc)
		p.exited <- cmd.Wait()
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			<-p.exited
			return nil, fmt.Errorf("serve child exited before announcing its address")
		}
		p.base = "http://" + a
		return p, nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("serve child did not announce its address within 10s")
	}
}

// sigterm asks the daemon to drain and waits for it to exit cleanly.
func (p *serveProc) sigterm() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.exited:
		if err != nil {
			return fmt.Errorf("serve child drain failed: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		return fmt.Errorf("serve child did not drain within 60s of SIGTERM")
	}
}

// submitSpec POSTs one campaign spec and demands a 202.
func submitSpec(base string, spec service.Spec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		buf := make([]byte, 512)
		n, _ := resp.Body.Read(buf)
		return fmt.Errorf("submit %s/%s: %s: %s", spec.Tenant, spec.Campaign, resp.Status, strings.TrimSpace(string(buf[:n])))
	}
	return nil
}

// pollDone polls one campaign's status until it is done (or terminally not).
func pollDone(base, id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/campaigns/" + id)
		if err == nil {
			var st struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			decErr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if decErr == nil && resp.StatusCode == http.StatusOK {
				switch st.Status {
				case "done":
					return nil
				case "failed", "cancelled":
					return fmt.Errorf("campaign %s ended %s: %s", id, st.Status, st.Error)
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("campaign %s not done after %s", id, timeout)
}

// queuedIDs reads the drain-persisted queue file: which campaigns the next
// start will resume. Absent file = nothing was pending.
func queuedIDs(dataDir string) (map[string]bool, error) {
	data, err := os.ReadFile(filepath.Join(dataDir, "queue.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var specs []service.Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("queue.json corrupt: %w", err)
	}
	ids := make(map[string]bool, len(specs))
	for _, s := range specs {
		ids[s.Tenant+"/"+s.Campaign] = true
	}
	return ids, nil
}

// tenantStarted reports whether the campaign ever ran: the service writes
// its campaign file only when it ends, and a drain ends a started campaign
// with a Save, so a drained campaign without the file never left the queue.
func tenantStarted(dataDir, tenant, campaign string) bool {
	_, err := os.Stat(filepath.Join(dataDir, tenant, campaign+".db"))
	return err == nil
}

// tenantRows opens a tenant store offline through the recovery path and
// returns its experiment rows sorted by name. A store the service never got
// around to creating reads as empty.
func tenantRows(dataDir, tenant, campaign string) ([]dbase.ExperimentRow, error) {
	dbPath := filepath.Join(dataDir, tenant, campaign+".db")
	if _, err := os.Stat(dbPath); os.IsNotExist(err) {
		return nil, nil
	}
	store, err := dbase.OpenStoreFS(dbPath, vfs.OS{})
	if err != nil {
		return nil, fmt.Errorf("reopen %s/%s: %w", tenant, campaign, err)
	}
	defer store.Close()
	rows, err := store.Experiments(campaign)
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ExperimentName < rows[j].ExperimentName })
	return rows, nil
}

// checkPrefix verifies the no-acked-loss / no-corruption oracle on a crashed
// store: every row that survived the drain must be bit-identical to the same
// experiment in the no-crash reference — the store may hold fewer rows than a
// finished run, never a wrong one.
func checkPrefix(got, want []dbase.ExperimentRow, id string) error {
	ref := make(map[string]dbase.ExperimentRow, len(want))
	for _, r := range want {
		ref[r.ExperimentName] = r
	}
	for _, g := range got {
		w, ok := ref[g.ExperimentName]
		if !ok {
			return fmt.Errorf("%s: recovered row %s does not exist in the reference run", id, g.ExperimentName)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("%s: recovered row %s corrupt:\n got %+v\nwant %+v", id, g.ExperimentName, g, w)
		}
	}
	return nil
}

// serveCampaign is one submitted campaign plus its reference truth.
type serveCampaign struct {
	spec service.Spec
	id   string
	want []dbase.ExperimentRow
}

// serveSpec is the submission of one harness campaign.
func serveSpec(tenant, name string, seed int64, shards int, opt options) service.Spec {
	return service.Spec{
		Tenant:      tenant,
		Campaign:    name,
		Workload:    "bubblesort",
		Locations:   "chain:internal.core",
		Experiments: opt.Experiments,
		Seed:        seed,
		TMin:        10,
		TMax:        1400,
		Shards:      shards,
		Chaos:       opt.Chaos,
	}
}

// makeServeCampaign builds the spec and runs its in-memory reference.
func makeServeCampaign(tenant, name string, seed int64, shards int, opt options) (serveCampaign, error) {
	sc := serveCampaign{spec: serveSpec(tenant, name, seed, shards, opt), id: tenant + "/" + name}
	c, err := campaignFor(name, seed, opt.Experiments)
	if err != nil {
		return sc, err
	}
	sc.want, _, err = referenceRun(c, opt)
	if err != nil {
		return sc, err
	}
	sort.Slice(sc.want, func(i, j int) bool { return sc.want[i].ExperimentName < sc.want[j].ExperimentName })
	return sc, nil
}

// runServeHarness executes opt.Iterations submit-SIGTERM-inspect-restart-
// verify cycles against a forked goofi serve daemon.
func runServeHarness(out *os.File, opt options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	midRun, queuedOnly, completed := 0, 0, 0
	horizons := map[[2]int]time.Duration{}
	for i := 0; i < opt.Iterations; i++ {
		shards := serveShards(i)
		horizon, ok := horizons[shards]
		if !ok {
			if horizon, err = serveHorizon(exe, opt, shards); err != nil {
				return fmt.Errorf("horizon run (shards %v): %w", shards, err)
			}
			horizons[shards] = horizon
		}
		res, err := serveIteration(exe, opt, i, shards, horizon)
		if err != nil {
			return fmt.Errorf("iteration %d (seed %d): %w", i, opt.Seed+int64(i), err)
		}
		switch {
		case len(res.midRun) > 0:
			midRun++
		case len(res.queued) > 0:
			queuedOnly++
		default:
			completed++
		}
		if opt.Verbose {
			fmt.Fprintf(out, "iter %2d: seed=%d shards=%v sigterm=%v/%v recovered=%d/%d %s\n",
				i, opt.Seed+int64(i), shards, res.killDelay, horizon.Round(time.Microsecond),
				res.rows[0], res.rows[1], res.outcome)
		}
	}
	fmt.Fprintf(out, "crashtest -serve PASS: %d iterations (%d drained a campaign mid-run, %d left only a queued campaign that never started, %d finished first), %d experiments each\n",
		opt.Iterations, midRun, queuedOnly, completed, opt.Experiments)
	return nil
}

// serveResult is the outcome of one serve iteration. A campaign pending in
// the drained queue was either running when SIGTERM arrived, and interrupted
// mid-run, or still queued behind the other and never started.
type serveResult struct {
	killDelay time.Duration
	rows      [2]int   // rows of campaigns A and B on disk after the drain
	midRun    []string // pending campaigns the drain interrupted mid-run
	queued    []string // pending campaigns that never started
	outcome   string
}

// serveShards is the shard count of campaigns A and B in iteration iter.
func serveShards(iter int) [2]int {
	var shards [2]int
	if iter%3 == 2 {
		shards[0] = 2
	}
	if iter%2 == 1 {
		shards[1] = 3
	}
	return shards
}

// serveHorizon times one undisturbed serve cycle of an iteration's two
// campaigns — from the submissions until the last campaign's final event
// frame, which the runner publishes as its Run returns — and stretches it by
// horizonSlack. SIGTERM delays drawn below it then land anywhere from before
// A's first row to the end of B's run, however fast the service runs them.
// The classification, journal drain and store close that follow a run are
// left out: a drain cannot interrupt them, so a SIGTERM drawn there would
// exercise nothing a finished campaign does not.
func serveHorizon(exe string, opt options, shards [2]int) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "goofi-servetest-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	p, err := startServe(exe, dir)
	if err != nil {
		return 0, err
	}
	specs := []service.Spec{
		serveSpec("acme", "horizon-a", opt.Seed, shards[0], opt),
		serveSpec("beta", "horizon-b", opt.Seed+1000, shards[1], opt),
	}
	for _, spec := range specs {
		if err = submitSpec(p.base, spec); err != nil {
			break
		}
	}
	start := time.Now()
	for _, spec := range specs {
		if err != nil {
			break
		}
		err = awaitFinalFrame(p.base, spec.Tenant+"/"+spec.Campaign, 2*time.Minute)
	}
	elapsed := time.Since(start)
	for _, spec := range specs {
		if err != nil {
			break
		}
		err = pollDone(p.base, spec.Tenant+"/"+spec.Campaign, 2*time.Minute)
	}
	if serr := p.sigterm(); err == nil {
		err = serr
	}
	return time.Duration(horizonSlack(int64(elapsed))), err
}

// awaitFinalFrame reads one campaign's NDJSON event stream up to its final
// frame. A campaign that already finished replays that frame at once.
func awaitFinalFrame(base, id string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/campaigns/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev obsv.CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		if ev.Final {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", id, err)
	}
	return fmt.Errorf("events %s ended before the final frame", id)
}

func serveIteration(exe string, opt options, iter int, shards [2]int, horizon time.Duration) (serveResult, error) {
	var res serveResult
	seed := opt.Seed + int64(iter)
	rng := rand.New(rand.NewSource(seed))

	dir, err := os.MkdirTemp("", "goofi-servetest-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	a, err := makeServeCampaign("acme", fmt.Sprintf("drill-%03d-a", iter), seed, shards[0], opt)
	if err != nil {
		return res, err
	}
	b, err := makeServeCampaign("beta", fmt.Sprintf("drill-%03d-b", iter), seed+1000, shards[1], opt)
	if err != nil {
		return res, err
	}

	// Phase 1: daemon up, two tenants submit; B queues behind A at
	// Concurrency=1. SIGTERM after a seeded delay below the measured
	// horizon, so it lands anywhere from before A's first row to the end of
	// B's run.
	p1, err := startServe(exe, dir)
	if err != nil {
		return res, err
	}
	if err := submitSpec(p1.base, a.spec); err != nil {
		return res, err
	}
	if err := submitSpec(p1.base, b.spec); err != nil {
		return res, err
	}
	res.killDelay = time.Duration(rng.Int63n(int64(horizon)))
	time.Sleep(res.killDelay)
	if err := p1.sigterm(); err != nil {
		return res, err
	}

	// Phase 2: offline inspection of the drained state. Whatever rows made
	// it to disk must be bit-identical to the reference — a graceful drain
	// may cut a campaign short, never corrupt it — and any campaign not yet
	// finished must be in the persisted queue for the next start.
	pending, err := queuedIDs(dir)
	if err != nil {
		return res, err
	}
	for i, sc := range []serveCampaign{a, b} {
		rows, err := tenantRows(dir, sc.spec.Tenant, sc.spec.Campaign)
		if err != nil {
			return res, err
		}
		res.rows[i] = len(rows)
		if err := checkPrefix(rows, sc.want, sc.id); err != nil {
			return res, err
		}
		if len(rows) < len(sc.want) && !pending[sc.id] {
			return res, fmt.Errorf("%s drained with %d/%d rows but is not in queue.json",
				sc.id, len(rows), len(sc.want))
		}
		switch {
		case !pending[sc.id]:
		case tenantStarted(dir, sc.spec.Tenant, sc.spec.Campaign):
			res.midRun = append(res.midRun, fmt.Sprintf("%s (%d/%d rows)", sc.id, len(rows), len(sc.want)))
		default:
			res.queued = append(res.queued, sc.id)
		}
	}

	// Phase 3: restart on the same directory; the daemon must resume the
	// pending campaigns on its own. Poll them to done, drain again.
	if len(pending) > 0 {
		p2, err := startServe(exe, dir)
		if err != nil {
			return res, err
		}
		for id := range pending {
			if err := pollDone(p2.base, id, 2*time.Minute); err != nil {
				return res, err
			}
		}
		if err := p2.sigterm(); err != nil {
			return res, err
		}
	}

	// Phase 4: final oracle. Both stores bit-identical to their reference
	// runs, and the clean drain removed the queue file.
	for _, sc := range []serveCampaign{a, b} {
		rows, err := tenantRows(dir, sc.spec.Tenant, sc.spec.Campaign)
		if err != nil {
			return res, err
		}
		if len(rows) != len(sc.want) {
			return res, fmt.Errorf("%s: %d rows after resume, want %d", sc.id, len(rows), len(sc.want))
		}
		for i := range sc.want {
			if !reflect.DeepEqual(rows[i], sc.want[i]) {
				return res, fmt.Errorf("%s: row %s differs between resumed service run and reference:\n got %+v\nwant %+v",
					sc.id, sc.want[i].ExperimentName, rows[i], sc.want[i])
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "queue.json")); !os.IsNotExist(err) {
		return res, fmt.Errorf("queue.json still present after a clean drain (err=%v)", err)
	}
	switch {
	case len(pending) == 0:
		res.outcome = "both campaigns finished before SIGTERM"
	case len(res.midRun) > 0:
		res.outcome = fmt.Sprintf("drained mid-run %v, queued %v, resumed to reference state", res.midRun, res.queued)
	default:
		res.outcome = fmt.Sprintf("queued, not started %v, resumed to reference state", res.queued)
	}
	return res, nil
}
