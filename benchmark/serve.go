package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/serve"
)

// daemonClients is the number of closed-loop clients driving a daemon,
// the machine's nproc.
const daemonClients = 2

// daemon is an in-process mpmb-serve instance behind a loopback HTTP
// server, with a client limited to one connection per closed-loop client.
type daemon struct {
	srv   *serve.Server
	ts    *httptest.Server
	hc    *http.Client
	graph string // job graph name under the daemon's graph root
}

// startDaemon serves the graph file's directory with the daemon's
// defaults and 2 job workers, keeping its state under stateDir.
func startDaemon(graphPath, stateDir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{GraphRoot: filepath.Dir(graphPath), StateDir: stateDir, Workers: 2})
	if err != nil {
		return nil, err
	}
	return &daemon{
		srv:   srv,
		ts:    httptest.NewServer(srv.Handler()),
		hc:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}},
		graph: filepath.Base(graphPath),
	}, nil
}

// close stops the listener, then drains the daemon.
func (d *daemon) close() error {
	d.ts.Close()
	d.hc.CloseIdleConnections()
	return d.srv.Close()
}

// resultDoc is the daemon's result document, as far as the checks read it.
type resultDoc struct {
	Method  string        `json:"method"`
	Trials  int           `json:"trials"`
	Partial bool          `json:"partial"`
	Top     []estimateDoc `json:"top"`
}

type estimateDoc struct {
	U1     mpmb.VertexID `json:"u1"`
	U2     mpmb.VertexID `json:"u2"`
	V1     mpmb.VertexID `json:"v1"`
	V2     mpmb.VertexID `json:"v2"`
	Weight float64       `json:"weight"`
	P      float64       `json:"p"`
}

// jobStatus is the part of the job status document the trace reads.
type jobStatus struct {
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

// jobRequest is the submitted job: the query spec plus its graph.
type jobRequest struct {
	Graph string `json:"graph"`
	querySpec
	TopK int `json:"top_k"`
}

// errRejected marks a submission the daemon refused with 429.
var errRejected = errors.New("rejected with 429")

// job is one completed closed-loop job.
type job struct {
	idx      int
	sp       querySpec
	id       string
	doc      resultDoc
	lat      time.Duration
	submit   time.Duration
	resultAt time.Time
	wait     int // span id of serve.wait, for the daemon-side children
	q        int
}

// run submits sp as tenant, follows its event stream until the job ends
// and fetches the result. With a recorder the three calls are spans of
// one query.
func (d *daemon) run(tenant string, sp querySpec, rec *recorder) (*job, error) {
	j := &job{sp: sp}
	j.q = rec.query()
	top := rec.start(0, j.q, "query")
	defer rec.end(top)
	t0 := time.Now()

	id := rec.start(top, j.q, "serve.submit")
	body, err := json.Marshal(jobRequest{Graph: d.graph, querySpec: sp, TopK: topK})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	var accepted struct {
		ID string `json:"id"`
	}
	if err := d.do(req, http.StatusAccepted, &accepted); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	j.id = accepted.ID
	rec.end(id)
	j.submit = time.Since(t0)

	j.wait = rec.start(top, j.q, "serve.wait")
	if err := d.get("/v1/jobs/"+j.id+"/events", nil); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	rec.end(j.wait)

	id = rec.start(top, j.q, "serve.result")
	if err := d.get("/v1/jobs/"+j.id+"/result", &j.doc); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	rec.end(id)
	j.resultAt = time.Now()
	j.lat = j.resultAt.Sub(t0)
	return j, nil
}

// status fetches the job's status document.
func (d *daemon) status(id string) (jobStatus, error) {
	var st jobStatus
	err := d.get("/v1/jobs/"+id, &st)
	return st, err
}

func (d *daemon) get(path string, into any) error {
	req, err := http.NewRequest(http.MethodGet, d.ts.URL+path, nil)
	if err != nil {
		return err
	}
	return d.do(req, http.StatusOK, into)
}

// do sends req, requires the want status, and decodes the body into
// into, or drains it when into is nil.
func (d *daemon) do(req *http.Request, want int, into any) error {
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode == http.StatusTooManyRequests {
			return fmt.Errorf("%w: %s", errRejected, bytes.TrimSpace(msg))
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if into == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// serveWindow drives the daemon with daemonClients closed-loop clients,
// tenants t0, t1, ..., taking jobs from qs in order until seconds have
// passed (every job when seconds < 0). It returns the completed jobs, the
// wall time and the number of 429 rejections; failures count in rep.
func serveWindow(d *daemon, qs []querySpec, seconds float64, rep *sessionReport, rec *recorder) ([]*job, float64, int) {
	var next atomic.Int64
	var mu sync.Mutex
	var done []*job
	rejected := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			mine := &sessionReport{}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) || (seconds >= 0 && time.Since(start).Seconds() >= seconds) {
					break
				}
				mine.Attempted++
				j, err := d.run(tenant, qs[i], rec)
				if err == nil {
					err = checkDoc(qs[i], &j.doc)
				}
				mu.Lock()
				if err != nil {
					if errors.Is(err, errRejected) {
						rejected++
					}
					mine.fail(fmt.Sprintf("job %d", i), err)
				} else {
					j.idx = i
					done = append(done, j)
				}
				mu.Unlock()
			}
			mu.Lock()
			rep.merge(mine)
			mu.Unlock()
		}(fmt.Sprintf("t%d", c))
	}
	wg.Wait()
	return done, time.Since(start).Seconds(), rejected
}

// serveSession runs a setup or measure session of the daemon workload.
// Set-up is serve.New plus the first job, which loads the graph.
func serveSession(in *inputs, mode string, seconds float64, offset int) (*sessionReport, error) {
	if mode != modeSetup && mode != modeMeasure {
		return nil, fmt.Errorf("unknown session mode %q", mode)
	}
	rep := &sessionReport{}
	start := time.Now()
	d, err := startDaemon(in.Graph, filepath.Join(filepath.Dir(in.Graph), fmt.Sprintf("state-%d", offset)))
	if err != nil {
		return nil, err
	}
	warmDaemon(d, in.Warmup[:1], rep)
	rep.SetupS = time.Since(start).Seconds()
	rep.RSSKB = peakRSSKB()
	warmDaemon(d, in.Warmup[1:], rep)
	var jobs []*job
	if mode == modeMeasure {
		jobs, rep.WallS, _ = serveWindow(d, in.Queries, seconds, rep, nil)
		for _, j := range jobs {
			rep.LatMS = append(rep.LatMS, ms(j.lat))
		}
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	if len(jobs) > 0 {
		if err := pairJobs(in.Graph, jobs, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// warmDaemon runs the warm-up jobs, untimed but checked.
func warmDaemon(d *daemon, specs []querySpec, rep *sessionReport) {
	for _, sp := range specs {
		rep.Attempted++
		j, err := d.run("t0", sp, nil)
		if err == nil {
			err = checkDoc(sp, &j.doc)
		}
		if err != nil {
			rep.fail("warm-up job", err)
		}
	}
}

// pairJobs re-runs every tenth job as a library search of the same spec,
// untimed, and requires the daemon's document to match it bit for bit.
func pairJobs(graphPath string, jobs []*job, rep *sessionReport) error {
	g, err := mpmb.LoadGraph(graphPath)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if j.idx%10 != 0 {
			continue
		}
		rep.Attempted++
		res, err := mpmb.Search(g, j.sp.options())
		if err == nil {
			err = sameDoc(&j.doc, res)
		}
		if err != nil {
			rep.fail(fmt.Sprintf("job %d vs library search", j.idx), err)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
