package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/service"
	"goofi/internal/vfs"
)

// serviceShape is the service-mix workload: clients, each its own tenant,
// submitting small bubblesort SCIFI campaigns over loopback HTTP.
type serviceShape struct {
	clients     int
	n           int // experiments per campaign
	concurrency int // service.Options.Concurrency
	setupReps   int // service.New + listener repetitions for setup_s
}

// daemon is one in-process service on a real loopback listener. Its set-up
// ends when the daemon answers its first request.
type daemon struct {
	dir    string
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

func startDaemon(dir string, fsys vfs.FS, concurrency int) (*daemon, error) {
	srv, err := service.New(service.Options{DataDir: dir, FS: fsys, Concurrency: concurrency})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // the listen error is the one to report
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	// Ready means answering: one health check over a fresh connection.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(d.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("service: healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop closes the listener and every connection, drains the service and
// waits for the serving goroutine to end.
func (d *daemon) stop() error {
	cerr := d.hs.Close()
	<-d.served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(cerr, d.srv.Drain(ctx))
}

// serviceSample is one campaign as its client saw it.
type serviceSample struct {
	tenant, campaign string
	seed             int64
	shards           int
	submit           time.Duration // POST sent → 202 received
	firstFrame       time.Duration // 202 received → first event frame
	turnaround       time.Duration // POST sent → Final frame
	report           time.Duration // GET /report latency
	toReport         time.Duration // POST sent → report received
	rep              analysis.Report
}

// serviceRunner drives the service-mix workload.
type serviceRunner struct {
	shape serviceShape
	seeds []int64
	dir   string

	setups            []time.Duration
	d                 *daemon
	client            *http.Client
	next              atomic.Int64 // campaign index, continuing across loops
	attempted, failed atomic.Int64
	http429           atomic.Int64
}

// setup starts the daemon setupReps times, keeping the last one.
func (sr *serviceRunner) setup(tr *Tracer) error {
	var fsys vfs.FS = vfs.OS{}
	if tr != nil {
		fsys = tracedFS{inner: fsys, tr: tr}
	}
	for i := 0; i < sr.shape.setupReps; i++ {
		dir := filepath.Join(sr.dir, fmt.Sprintf("svc%d", len(sr.setups)))
		t0 := time.Now()
		var d *daemon
		err := tr.Record(0, layerService, "New+Listen", func() (err error) {
			d, err = startDaemon(dir, fsys, sr.shape.concurrency)
			return err
		})
		if err != nil {
			return err
		}
		sr.setups = append(sr.setups, time.Since(t0))
		if i < sr.shape.setupReps-1 {
			if err := d.stop(); err != nil {
				return err
			}
			continue
		}
		sr.d = d
	}
	sr.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: sr.shape.clients, MaxIdleConnsPerHost: sr.shape.clients}}
	return nil
}

func (sr *serviceRunner) close() error {
	if sr.client != nil {
		sr.client.CloseIdleConnections()
	}
	if sr.d == nil {
		return nil
	}
	return sr.d.stop()
}

// loop runs every client until d has passed and minCampaigns campaigns have
// completed in total, or until 3d has passed.
func (sr *serviceRunner) loop(d time.Duration, minCampaigns int, tr *Tracer, prof *profile) ([]serviceSample, time.Duration, error) {
	start := time.Now()
	var done atomic.Int64
	var mu sync.Mutex
	var samples []serviceSample
	errs := make([]error, sr.shape.clients)
	var wg sync.WaitGroup
	for c := 0; c < sr.shape.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				el := time.Since(start)
				if (el >= d && done.Load() >= int64(minCampaigns)) || el >= 3*d {
					return
				}
				s, err := sr.campaign(c, 1+i%2, tr)
				if err != nil {
					errs[c] = err
					return
				}
				done.Add(1)
				mu.Lock()
				samples = append(samples, s)
				if prof != nil {
					prof.submit = append(prof.submit, float64(s.submit)/1e6)
					prof.firstFrame = append(prof.firstFrame, float64(s.firstFrame)/1e6)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return samples, time.Since(start), errors.Join(errs...)
}

// campaign runs one client round trip: POST the spec, stream events to the
// Final frame, wait for the done status, GET the report, DELETE the job so
// the daemon forgets it.
func (sr *serviceRunner) campaign(client, shards int, tr *Tracer) (serviceSample, error) {
	k := int(sr.next.Add(1) - 1)
	s := serviceSample{
		tenant:   fmt.Sprintf("t%d", client),
		campaign: fmt.Sprintf("c%05d", k),
		seed:     sr.seeds[k%len(sr.seeds)],
		shards:   shards,
	}
	spec := service.Spec{
		Tenant: s.tenant, Campaign: s.campaign, Workload: "bubblesort", Technique: core.TechSCIFI,
		Locations: "chain:internal.core", Experiments: sr.shape.n, Seed: s.seed,
		TMin: 10, TMax: 1400, Shards: s.shards,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return s, err
	}
	lane := client + 1
	sr.attempted.Add(int64(sr.shape.n))
	id := "/campaigns/" + s.tenant + "/" + s.campaign

	t0 := time.Now()
	for {
		var code int
		err := sr.do(tr, lane, "POST /campaigns", http.MethodPost, "/campaigns", body, &code, nil)
		if err != nil {
			return s, err
		}
		if code == http.StatusAccepted {
			break
		}
		if code != http.StatusTooManyRequests {
			return s, fmt.Errorf("service: submit %s: status %d", id, code)
		}
		sr.http429.Add(1)
		time.Sleep(50 * time.Millisecond)
	}
	accepted := time.Now()
	s.submit = accepted.Sub(t0)

	if err := sr.stream(tr, lane, id, accepted, &s); err != nil {
		return s, err
	}
	s.turnaround = time.Since(t0)
	for {
		var st service.Status
		var code int
		if err := sr.do(tr, lane, "GET status", http.MethodGet, id, nil, &code, &st); err != nil {
			return s, err
		}
		if code != http.StatusOK {
			return s, fmt.Errorf("service: status %s: %d", id, code)
		}
		if st.Status == service.StatusDone {
			break
		}
		if st.Status != service.StatusRunning {
			return s, fmt.Errorf("service: campaign %s ended %s: %s", id, st.Status, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	r0 := time.Now()
	var code int
	if err := sr.do(tr, lane, "GET report", http.MethodGet, id+"/report", nil, &code, &s.rep); err != nil {
		return s, err
	}
	s.report = time.Since(r0)
	s.toReport = time.Since(t0)
	if code != http.StatusOK {
		return s, fmt.Errorf("service: report %s: %d", id, code)
	}
	if err := checkReport(s.rep, sr.shape.n); err != nil {
		return s, err
	}
	if err := sr.do(tr, lane, "DELETE", http.MethodDelete, id, nil, &code, nil); err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("service: delete %s: %d", id, code)
	}
	return s, nil
}

// do sends one request and decodes a JSON answer into out when non-nil. Every
// request counts as an attempted operation and every non-2xx as failed.
func (sr *serviceRunner) do(tr *Tracer, lane int, name, method, path string, body []byte, code *int, out any) error {
	sr.attempted.Add(1)
	return tr.Record(lane, layerService, name, func() error {
		req, err := http.NewRequest(method, sr.d.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := sr.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		*code = resp.StatusCode
		if resp.StatusCode/100 != 2 {
			sr.failed.Add(1)
		}
		if out != nil && resp.StatusCode == http.StatusOK {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
}

// stream reads the campaign's NDJSON event stream up to the Final frame.
func (sr *serviceRunner) stream(tr *Tracer, lane int, id string, accepted time.Time, s *serviceSample) error {
	sr.attempted.Add(1)
	return tr.Record(lane, layerService, "GET events", func() error {
		resp, err := sr.client.Get(sr.d.base + id + "/events")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			sr.failed.Add(1)
			return fmt.Errorf("service: events %s: %d", id, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		for first := true; sc.Scan(); first = false {
			if first {
				s.firstFrame = time.Since(accepted)
			}
			var ev obsv.CampaignEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return err
			}
			if ev.Final {
				return nil
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("service: events %s ended before the final frame", id)
	})
}

// verify is the untimed oracle over every completed campaign: its rows, read
// back from the tenant store on disk, are logged exactly once and match an
// in-process plain core.Runner run of the same spec, and its report matches
// that run's classification. Traced, the classification of each reopened
// store is timed too (the service's own report path is out of reach).
func (sr *serviceRunner) verify(samples []serviceSample, tr *Tracer, prof *profile) error {
	type ref struct {
		digest string
		rep    analysis.Report
	}
	refs := map[int64]ref{}
	shardsSeen := map[int]bool{}
	for _, s := range samples {
		shardsSeen[s.shards] = true
		r, ok := refs[s.seed]
		if !ok {
			c := scifiCampaign(sr.shape.n)(s.seed)
			c.Name = "plain"
			rows, rep, err := plainRun(c)
			if err != nil {
				return err
			}
			r = ref{rowDigest(rows, -1), rep}
			refs[s.seed] = r
		}
		path := filepath.Join(sr.d.dir, s.tenant, s.campaign+".db")
		store, err := dbase.OpenStoreFS(path, vfs.OS{})
		if err != nil {
			return err
		}
		rows, err := store.Experiments(s.campaign)
		if err == nil {
			var lost int
			lost, err = checkRows(rows, s.campaign, sr.shape.n)
			sr.failed.Add(int64(lost))
		}
		if err == nil && rowDigest(rows, -1) != r.digest {
			err = fmt.Errorf("oracle: %s/%s (seed %d, %d shards) rows differ from the plain engine", s.tenant, s.campaign, s.seed, s.shards)
		}
		if err == nil && !sameCounts(s.rep, r.rep) {
			err = fmt.Errorf("oracle: %s/%s report %v differs from the plain engine %v", s.tenant, s.campaign, s.rep.Counts, r.rep.Counts)
		}
		if err == nil && tr != nil {
			var rep analysis.Report
			err = classify(tr, prof, store, s.campaign, sr.shape.n, &rep)
			prof.fold(window{spans: tr.Take()})
		}
		store.Close()
		if err != nil {
			return err
		}
	}
	// Each client alternates shard counts, so once some client has run two
	// campaigns both counts must have completed.
	if len(samples) > sr.shape.clients && (!shardsSeen[1] || !shardsSeen[2]) {
		return fmt.Errorf("oracle: campaigns completed with shard counts %v, want both 1 and 2", shardsSeen)
	}
	return nil
}

func sameCounts(a, b analysis.Report) bool {
	if a.Total != b.Total || a.Failed != b.Failed || len(a.Counts) != len(b.Counts) {
		return false
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			return false
		}
	}
	return true
}
