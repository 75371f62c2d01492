package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/tensor"
)

// Serve workloads: this process is the one load generator. It builds the
// real cmd/ugrapher-serve binary, runs it as a child with default flags,
// drives it over HTTP on runtime.NumCPU() keep-alive connections, checks
// every response against a reference computed here, and reads the daemon's
// own /metrics before and after the measured phase.

// storedSeed seeds the daemon's stored feature matrix (serve.New).
const storedSeed = 42

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times
// (100 on every Linux build Go supports).
const clockTick = 100

// buildDaemon compiles the daemon (non-race) into dir and returns its path.
// go build leaves an up-to-date binary alone, so repeated runs pay once.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "ugrapher-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ugrapher-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ugrapher-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running ugrapher-serve child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	out    *lockedBuffer
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) add(line string) {
	l.mu.Lock()
	l.b.WriteString(line + "\n")
	l.mu.Unlock()
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startDaemon launches the binary on a free port and returns once it has
// printed its "listening on" handshake and /readyz answers 200. started is
// the instant of exec, the origin of setup_s.
func startDaemon(bin string, w workload, client *http.Client) (d *daemon, started time.Time, err error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-models", strings.Join(w.Models, ","), "-dataset", w.Dataset)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, started, err
	}
	cmd.Stderr = os.Stderr
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, started, err
	}
	d = &daemon{cmd: cmd, exited: make(chan error, 1), out: &lockedBuffer{}}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.out.add(line)
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addr <- rest
			}
		}
		// Wait only after the pipe is drained, as os/exec requires.
		d.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		return nil, started, fmt.Errorf("daemon exited before listening: %v\n%s", err, d.out)
	case <-time.After(150 * time.Second):
		d.kill()
		return nil, started, fmt.Errorf("daemon did not print its listening line within 150s\n%s", d.out)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, started, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, started, fmt.Errorf("daemon /readyz not 200 within 10s (last error: %v)", err)
		}
	}
}

// stop asks for a graceful drain and requires exit code 0; a daemon that
// does not exit in time is killed, so a failed run leaves no orphan.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("daemon did not drain cleanly: %v\n%s", err, d.out)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("daemon ignored SIGTERM for 20s; killed\n%s", d.out)
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
	d.exited <- nil // keep a later stop or kill from blocking
}

// cpuSeconds reads the user+system CPU time a process has used.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTick
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// promSample is a parsed /metrics page: series text ("name{labels}") to value.
type promSample map[string]float64

func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sum adds every series called name whose label text contains label
// (summing over models).
func (p promSample) sum(name, label string) float64 {
	var total float64
	for k, v := range p {
		if (k == name || strings.HasPrefix(k, name+"{")) && strings.Contains(k, label) {
			total += v
		}
	}
	return total
}

// plannedReq is one request of a workload, drawn from the seed alone.
type plannedReq struct {
	// Due is when an open-loop request is to be sent, from the phase start.
	Due      time.Duration
	Model    int // index into workload.Models
	Custom   bool
	Vertices [verticesPerRequest]int
}

// drawVertices draws one request's vertex ids.
func drawVertices(rng *rand.Rand, numV int) (ids [verticesPerRequest]int) {
	for i := range ids {
		ids[i] = rng.Intn(numV)
	}
	return ids
}

// openSchedule is the whole open-loop arrival plan: rate x phase arrivals
// with exponential gaps scaled to fill the phase exactly (a Poisson process
// given its count), and the workload's class shares dealt out exactly and
// shuffled. Only the order and the timing depend on the seed, so two seeds
// offer the same load and differ in where the bursts fall.
func openSchedule(w workload, seed int64, phase time.Duration, numV int) []plannedReq {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(w.RatePerS * phase.Seconds()))
	plan := make([]plannedReq, n)
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	at := 0.0
	for i := range plan {
		at += gaps[i]
		plan[i] = plannedReq{Due: time.Duration(at / total * float64(phase)), Vertices: drawVertices(rng, numV)}
	}
	second, custom := rng.Perm(n), rng.Perm(n)
	for _, i := range second[:int(math.Round(w.SecondShare*float64(n)))] {
		plan[i].Model = 1
	}
	for _, i := range custom[:int(math.Round(w.CustomShare*float64(n)))] {
		plan[i].Custom = true
	}
	return plan
}

// sample is one completed request as the client saw it.
type sample struct {
	req      plannedReq
	latMS    float64 // closed: send to body read; open: due to body read
	lateMS   float64 // open loop: how long after its due time it was sent
	kernelMS float64 // the daemon's own forward-pass time for this request
	bodyKB   float64
	failed   bool
	traced   bool
}

// loadgen holds what every sender shares.
type loadgen struct {
	w      workload
	client *http.Client
	url    string
	numV   int
	// ref[model][0] is the reference output on stored features, [1] on the
	// caller-supplied matrix.
	ref [][2]*tensor.Dense
	// customJSON is the caller-supplied matrix, encoded once.
	customJSON []byte
	tr         *tracer
	// firstErr is the first failure any sender saw, for the report.
	errOnce  sync.Once
	firstErr string
}

type wireResponse struct {
	Logits [][]float32 `json:"logits"`
	Timing struct {
		KernelMS float64 `json:"kernel_ms"`
	} `json:"timing"`
}

func (lg *loadgen) body(r plannedReq) []byte {
	b := make([]byte, 0, 96+len(lg.customJSON))
	b = append(b, `{"model":"`...)
	b = append(b, lg.w.Models[r.Model]...)
	b = append(b, `","vertices":[`...)
	for i, v := range r.Vertices {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ']')
	if r.Custom {
		b = append(b, `,"features":`...)
		b = append(b, lg.customJSON...)
	}
	return append(b, '}')
}

// send issues one request and judges the answer: 200, decodable, and every
// returned row within tolerance of the reference row. origin is the instant
// latency counts from.
func (lg *loadgen) send(r plannedReq, origin time.Time, traced bool) sample {
	body := lg.body(r)
	s := sample{req: r, bodyKB: float64(len(body)) / 1024, traced: traced}
	sent := time.Now()
	s.lateMS = float64(sent.Sub(origin)) / 1e6
	resp, err := lg.client.Post(lg.url, "application/json", bytes.NewReader(body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	s.latMS = float64(done.Sub(origin)) / 1e6
	if traced {
		id := lg.tr.add("loadgen.request", 0, origin, done)
		lg.tr.add("loadgen.wait", id, origin, sent)
		lg.tr.add("serve.http", id, sent, done)
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var wr wireResponse
	if err == nil {
		err = json.Unmarshal(raw, &wr)
	}
	if err == nil {
		err = lg.check(r, wr.Logits)
	}
	if err != nil {
		s.failed = true
		lg.errOnce.Do(func() { lg.firstErr = err.Error() })
	}
	s.kernelMS = wr.Timing.KernelMS
	return s
}

func (lg *loadgen) check(r plannedReq, logits [][]float32) error {
	which := 0
	if r.Custom {
		which = 1
	}
	ref := lg.ref[r.Model][which]
	if len(logits) != len(r.Vertices) {
		return fmt.Errorf("got %d rows for %d vertices", len(logits), len(r.Vertices))
	}
	for i, v := range r.Vertices {
		got, want := tensor.FromSlice(1, len(logits[i]), logits[i]), tensor.FromSlice(1, ref.Cols, ref.Row(v))
		if !got.AllClose(want, tolerance, tolerance) {
			return fmt.Errorf("model %s vertex %d: got %v, reference %v", lg.w.Models[r.Model], v, logits[i], want.Data)
		}
	}
	return nil
}

// run drives the measured phase and returns every sample plus the seconds
// the phase took (start to the last response).
func (lg *loadgen) run(seed int64, phase time.Duration) ([]sample, float64) {
	conns := runtime.NumCPU()
	results := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	if lg.w.RatePerS > 0 {
		plan := openSchedule(lg.w, seed, phase, lg.numV)
		var next atomic.Int64
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(plan) {
						return
					}
					due := start.Add(plan[i].Due)
					time.Sleep(time.Until(due))
					results[c] = append(results[c], lg.send(plan[i], due, lg.tr != nil && i%2 == 0))
				}
			}(c)
		}
	} else {
		// Closed loop: every connection asks the first model for stored
		// features, the next request as soon as the last one is answered.
		deadline := start.Add(phase)
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(c)))
				for i := 0; time.Now().Before(deadline); i++ {
					results[c] = append(results[c], lg.send(plannedReq{Vertices: drawVertices(rng, lg.numV)}, time.Now(), lg.tr != nil && i%2 == 0))
				}
			}(c)
		}
	}
	wg.Wait()
	took := time.Since(start).Seconds()
	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all, took
}

// encodeMatrix renders a feature matrix as the JSON the daemon expects.
func encodeMatrix(x *tensor.Dense) ([]byte, error) {
	rows := make([][]float32, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	return json.Marshal(rows)
}

// newLoadgen computes the references (one per model for the stored matrix,
// one per model for the seeded caller-supplied matrix) before any daemon
// runs, so the oracle never competes with the measured phase.
func newLoadgen(w workload, seed int64, tr *tracer) (*loadgen, error) {
	g, _, err := datasets.Load(w.Dataset)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	lg := &loadgen{w: w, numV: g.NumVertices(), tr: tr, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}}
	stored := features(g.NumVertices(), w.Feat, storedSeed)
	custom := features(g.NumVertices(), w.Feat, seed)
	for _, name := range w.Models {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		var refs [2]*tensor.Dense
		for i, x := range []*tensor.Dense{stored, custom} {
			if i == 1 && w.CustomShare == 0 {
				break
			}
			if refs[i], err = referenceForward(m, g, x, w.Classes); err != nil {
				return nil, fmt.Errorf("oracle %s: %w", name, err)
			}
		}
		lg.ref = append(lg.ref, refs)
	}
	if w.CustomShare > 0 {
		if lg.customJSON, err = encodeMatrix(custom); err != nil {
			return nil, err
		}
	}
	return lg, nil
}

// warm sends the untimed warm-up requests: warmupOps per served model.
func (lg *loadgen) warm() error {
	for m := range lg.w.Models {
		for i := 0; i < warmupOps; i++ {
			if s := lg.send(plannedReq{Model: m}, time.Now(), false); s.failed {
				return fmt.Errorf("warm-up request failed: %s", lg.firstErr)
			}
		}
	}
	return nil
}

// runServe is one serve workload: the run's processes are daemon starts,
// each warmed, measured for its share of the phase, stopped with SIGTERM and
// required to exit 0. The traced run uses one daemon.
func runServe(w workload, o options, root string) (Result, error) {
	res := newResult(w, o)
	var tr *tracer
	if o.trace {
		tr = newTracer(w.Name)
	}
	bin, err := buildDaemon(root, filepath.Join(o.outDir, "bin"))
	if err != nil {
		return res, err
	}
	lg, err := newLoadgen(w, o.seed, tr)
	if err != nil {
		return res, err
	}
	defer lg.client.CloseIdleConnections()

	starts := processesPerRun
	if o.trace {
		starts = 1
	}
	stretch := o.phase() / time.Duration(starts)
	var phases []phase
	for i := 0; i < starts; i++ {
		d, started, err := startDaemon(bin, w, lg.client)
		if err != nil {
			return res, err
		}
		lg.url = d.base + "/v1/infer"
		if err = lg.warm(); err != nil {
			d.kill()
			return res, err
		}
		setup := time.Since(started).Seconds()
		// Each daemon gets its own stretch of the seeded request stream.
		ph, err := measureServe(lg, d, o.seed*int64(starts)+int64(i), stretch, &res)
		lg.client.CloseIdleConnections()
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return res, err
		}
		ph.SetupS = setup
		phases = append(phases, ph)
	}
	if !o.trace {
		res.setAll(endToEndMetrics(phases))
	}
	res.Samples["processes"] = starts

	if o.trace {
		// The served model's own layers, measured in this process once the
		// daemon is gone: same model, dataset and shapes as it compiled.
		short := o
		short.seconds = o.seconds / 4
		prof, err := profileModel(w, short, tr)
		if err != nil {
			return res, err
		}
		if err := prof.s.checkOracle(w.Classes); err != nil {
			return res, err
		}
		for k, v := range prof.metrics {
			if _, mine := res.Metrics[k]; !mine {
				res.set(k, v)
			}
		}
		res.Steps = prof.steps
		if err := tr.write(filepath.Join(o.outDir, w.Name+".spans.json")); err != nil {
			return res, err
		}
	}
	return res, nil
}

// measureServe runs one measured stretch against a warm daemon, adds its
// operation counts to res and returns its phase; the traced run's per-layer
// metrics go straight into res.
func measureServe(lg *loadgen, d *daemon, seed int64, stretch time.Duration, res *Result) (phase, error) {
	before, err := scrape(lg.client, d.base)
	if err != nil {
		return phase{}, err
	}
	pid := d.cmd.Process.Pid
	cpu0, self0 := cpuSeconds(pid), selfCPUSeconds()
	samples, took := lg.run(seed, stretch)
	cpu1, self1 := cpuSeconds(pid), selfCPUSeconds()
	after, err := scrape(lg.client, d.base)
	if err != nil {
		return phase{}, err
	}
	rss := peakRSSMiB(pid)
	if len(samples) == 0 {
		return phase{}, fmt.Errorf("no request was sent in %v", stretch)
	}

	var lat, kernel, late, stored, custom, tracedLat, plainLat []float64
	var bodyKB float64
	good, failed := 0, 0
	for _, s := range samples {
		bodyKB += s.bodyKB
		late = append(late, s.lateMS)
		if s.failed {
			failed++
			continue
		}
		lat = append(lat, s.latMS)
		kernel = append(kernel, s.kernelMS)
		if s.latMS <= lg.w.LimitMS {
			good++
		}
		if s.req.Custom {
			custom = append(custom, s.latMS)
		} else {
			stored = append(stored, s.latMS)
		}
		if s.traced {
			tracedLat = append(tracedLat, s.latMS)
		} else {
			plainLat = append(plainLat, s.latMS)
		}
	}
	res.add(len(samples), failed, lg.firstErr, map[string]int{"lat_ms": len(lat), "lat_ms.stored": len(stored), "lat_ms.custom": len(custom)})
	delta := func(name, label string) float64 { return after.sum(name, label) - before.sum(name, label) }
	requests, batches := delta("ugrapher_serve_requests_total", ""), delta("ugrapher_serve_batches_total", "")
	ph := phase{RSSMiB: rss, LatMS: lat, FwdMS: kernel, Good: good, Passes: batches, Seconds: took}
	if lg.tr == nil {
		return ph, nil
	}

	sorted := sortedCopy(lat)
	p50 := percentile(sorted, 50)
	sent := float64(len(samples))
	m := map[string]float64{
		"serve.compile_s":         after.sum("ugrapher_serve_stage_seconds_sum", `stage="compile"`),
		"serve.rejected":          delta("ugrapher_serve_rejected_total", ""),
		"serve.timeouts":          delta("ugrapher_serve_timeouts_total", ""),
		"serve.degraded":          delta("ugrapher_serve_degraded_total", ""),
		"serve.cpu_ms_per_req":    (cpu1 - cpu0) / sent * 1e3,
		"serve.lat_ms_p99":        percentile(sorted, 99),
		"serve.stored.lat_ms_p50": median(stored),
		"serve.custom.lat_ms_p50": median(custom),
		"serve.req_body_kb_mean":  bodyKB / sent,
		"loadgen.sent":            sent,
		"loadgen.cpu_share":       (self1 - self0) / took,
	}
	var stages float64
	for _, st := range []string{"admission", "queue_wait", "batch_wait", "kernel", "respond"} {
		label := `stage="` + st + `"`
		if n := delta("ugrapher_serve_stage_seconds_count", label); n > 0 {
			m["serve.stage_ms."+st] = delta("ugrapher_serve_stage_seconds_sum", label) / n * 1e3
			stages += m["serve.stage_ms."+st]
		}
	}
	m["serve.http_overhead_ms"] = p50 - stages
	if batches > 0 {
		m["serve.batch_mean"] = requests / batches
		m["serve.useful_row_share"] = requests * verticesPerRequest / (batches * float64(lg.numV))
	}
	if lg.w.RatePerS > 0 {
		m["loadgen.late_ms_p90"] = percentile(sortedCopy(late), 90)
	}
	if base := median(plainLat); base > 0 {
		m["trace.overhead_share"] = median(tracedLat)/base - 1
	}
	fmt.Printf("  client latency in the traced run: p50 %.4f ms, p90 %.4f ms; daemon kernel + queue_wait are %.2f of that p50\n",
		p50, percentile(sorted, 90), (m["serve.stage_ms.kernel"]+m["serve.stage_ms.queue_wait"])/p50)
	res.setAll(m)
	return ph, nil
}
