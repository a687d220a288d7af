package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/svc"
	"repro/internal/vm"
)

const (
	serveUses  = 3 // requests per key and pass
	serveSizes = 8 // problem sizes per benchmark
	serveNodes = 2
)

// serveKey is one point of the serve key space: a benchmark at a level
// and size, either run sequentially (/run) or compiled for p=2
// (/compile).
type serveKey struct {
	bench string
	level string
	size  int64
	run   bool
}

func (k serveKey) request() svc.Request {
	b, _ := programs.ByName(k.bench)
	r := svc.Request{Bench: k.bench, Level: k.level, Configs: map[string]int64{b.SizeConfig: k.size}}
	if !k.run {
		r.Procs = 2
	}
	return r
}

func (k serveKey) path() string {
	if k.run {
		return "/run"
	}
	return "/compile"
}

// serveKeys is the fixed key space: 6 benchmarks × {c2+f3, c2+f4} ×
// serveSizes sizes (eighths of the default size, at least 8) ×
// {sequential /run, p=2 /compile}.
func serveKeys() []serveKey {
	var keys []serveKey
	for _, b := range programs.All() {
		for _, lvl := range []string{"c2+f3", "c2+f4"} {
			for i := int64(1); i <= serveSizes; i++ {
				size := max(8, b.DefaultSize*i/serveSizes)
				for _, run := range []bool{true, false} {
					keys = append(keys, serveKey{bench: b.Name, level: lvl, size: size, run: run})
				}
			}
		}
	}
	return keys
}

// serveStream is the request stream: every key once, in a seeded
// order, then every key serveUses-1 more times, shuffled, so two thirds
// of the requests repeat an earlier key. Every stream holds the same
// requests, and no request waits on another's compile of the same key,
// which keeps the work of a pass independent of the seed; the seed
// only orders it.
func serveStream(seed int64, nkeys int) []int {
	rng := rand.New(rand.NewSource(seed))
	s := rng.Perm(nkeys)
	var again []int
	for i := 1; i < serveUses; i++ {
		for k := 0; k < nkeys; k++ {
			again = append(again, k)
		}
	}
	rng.Shuffle(len(again), func(i, j int) { again[i], again[j] = again[j], again[i] })
	return append(s, again...)
}

// serveWL runs two in-process zpld nodes on one consistent-hash ring,
// each with its own disk tier, driven by two closed-loop clients, one
// per node over one keep-alive connection, that take turns with the
// stream: each sends the next unsent request when its previous one has
// been answered, so the nodes share the stream round-robin while a
// long compile on one does not hold back the other. A round
// replays the stream from empty caches (misses, peer and mem hits),
// then re-creates both nodes over the same directories and addresses
// and replays it again (disk hits).
type serveWL struct {
	seed   int64
	work   string
	keys   []serveKey
	bodies [][]byte
	refs   map[int]string // /run key → direct driver+VM output
	stream []int
	rounds int
}

func (w *serveWL) setup() error {
	w.keys = serveKeys()
	w.stream = serveStream(w.seed, len(w.keys))
	w.refs = map[int]string{}
	for _, k := range w.keys {
		body, err := json.Marshal(k.request())
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
	}
	for _, i := range w.stream {
		k := w.keys[i]
		if _, done := w.refs[i]; done || !k.run {
			continue
		}
		out, err := directRun(k)
		if err != nil {
			return fmt.Errorf("reference %s %s n=%d: %w", k.bench, k.level, k.size, err)
		}
		w.refs[i] = out
	}
	return nil
}

// directRun compiles and runs a /run key through the driver and the VM,
// as the service would.
func directRun(k serveKey) (string, error) {
	b, _ := programs.ByName(k.bench)
	lvl, err := core.ParseLevel(k.level)
	if err != nil {
		return "", err
	}
	c, err := driver.Compile(b.Source, driver.Options{Level: lvl, Configs: map[string]int64{b.SizeConfig: k.size}})
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	if _, _, err := vm.Run(c.LIR, vm.Options{Out: &out, Bounds: c.Bounds}); err != nil {
		return "", err
	}
	return out.String(), nil
}

// zpldNode is one running service instance.
type zpldNode struct {
	stop context.CancelFunc
	done chan error
}

func startNode(addr string, peers []string, dir string) (*zpldNode, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := svc.New(svc.Config{
		CacheDir:    filepath.Join(dir, "cache"),
		ArtifactDir: filepath.Join(dir, "artifacts"),
		Self:        l.Addr().String(),
		Peers:       peers,
	})
	ctx, cancel := context.WithCancel(context.Background())
	n := &zpldNode{stop: cancel, done: make(chan error, 1)}
	go func() { n.done <- s.ServeListener(ctx, l) }()
	return n, nil
}

func (n *zpldNode) close() error {
	n.stop()
	return <-n.done
}

// reply is the outcome of one request.
type reply struct {
	idx    int // position in the stream
	d      time.Duration
	status int
	resp   svc.RunResponse
	err    error
}

func (w *serveWL) round(rec *recorder) {
	w.rounds++
	dir := filepath.Join(w.work, fmt.Sprintf("round-%d", w.rounds))
	defer os.RemoveAll(dir)
	// Reserve two loopback addresses; the restarted nodes reuse them, so
	// the ring (and every key's owner) is the same in both passes.
	var addrs []string
	for i := 0; i < serveNodes; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rec.op("", 0, fmt.Errorf("serve: listen: %w", err))
			return
		}
		addrs = append(addrs, l.Addr().String())
		l.Close()
	}
	seen := map[int]svc.CompileResponse{}
	compiles, rejected := 0.0, 0.0
	for _, pass := range []string{"cold", "warm"} {
		var nodes []*zpldNode
		for i, a := range addrs {
			n, err := startNode(a, addrs, filepath.Join(dir, fmt.Sprintf("node-%d", i)))
			if err != nil {
				rec.op("", 0, fmt.Errorf("serve: start node %d: %w", i, err))
				break
			}
			nodes = append(nodes, n)
		}
		if len(nodes) == serveNodes {
			t0 := time.Now()
			replies := w.pass(rec.tr, addrs)
			rec.add("serve_pass_s", time.Since(t0).Seconds())
			for _, r := range replies {
				w.record(rec, r, seen)
				if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
					rejected++
				}
			}
			m, err := scrape(addrs)
			if err != nil {
				rec.op("", 0, fmt.Errorf("serve: metrics: %w", err))
			}
			for name, v := range m {
				rec.add(pass+"."+name, v)
			}
			compiles += m["store.compiles"]
		}
		for _, n := range nodes {
			if err := n.close(); err != nil {
				rec.op("", 0, fmt.Errorf("serve: stop node: %w", err))
			}
		}
	}
	rec.add("store.duplicate_compiles", compiles-float64(len(seen)))
	rec.add("svc.rejected", rejected)
}

// pass sends the whole stream with one closed-loop client per node and
// returns the replies in stream order.
func (w *serveWL) pass(tr *tracer, addrs []string) []reply {
	replies := make([]reply, len(w.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range addrs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: time.Minute}
			for i := int(next.Add(1) - 1); i < len(w.stream); i = int(next.Add(1) - 1) {
				replies[i] = w.send(client, tr, "http://"+addrs[c], i)
			}
		}(c)
	}
	wg.Wait()
	return replies
}

func (w *serveWL) send(client *http.Client, tr *tracer, base string, i int) reply {
	k := w.keys[w.stream[i]]
	r := reply{idx: i}
	sp := tr.start("http"+k.path(), 0, tr.newOp())
	t0 := time.Now()
	resp, err := client.Post(base+k.path(), "application/json", bytes.NewReader(w.bodies[w.stream[i]]))
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
		if err == nil && r.status == http.StatusOK {
			err = json.Unmarshal(body, &r.resp)
		} else if err == nil {
			err = fmt.Errorf("%s %s: status %d: %s", k.path(), k.bench, r.status, bytes.TrimSpace(body))
		}
	}
	r.d = time.Since(t0)
	tag := r.resp.Tier
	if tag == "" {
		tag = "miss"
	}
	tr.end(sp, tag)
	r.err = err
	return r
}

// record checks one reply and records it: a /run output must equal the
// direct driver+VM run; a /compile reply must agree with the first reply
// for its key and report every race pair ordered.
func (w *serveWL) record(rec *recorder, r reply, seen map[int]svc.CompileResponse) {
	ki := w.stream[r.idx]
	k := w.keys[ki]
	err := r.err
	if err == nil && k.run && r.resp.Output != w.refs[ki] {
		err = fmt.Errorf("/run %s %s n=%d: output differs from the direct driver+VM run", k.bench, k.level, k.size)
	}
	cr := r.resp.CompileResponse
	if err == nil && !k.run {
		if rr := cr.Races; rr == nil || rr.Ordered != rr.Pairs {
			err = fmt.Errorf("/compile %s %s n=%d: races %+v, want every pair ordered", k.bench, k.level, k.size, rr)
		} else if first, ok := seen[ki]; ok && (first.Key != cr.Key || first.Contracted != cr.Contracted || first.NestCount != cr.NestCount) {
			err = fmt.Errorf("/compile %s %s n=%d: reply differs from the key's first reply", k.bench, k.level, k.size)
		}
	}
	if _, ok := seen[ki]; !ok && err == nil {
		seen[ki] = cr
	}
	series := "serve_miss"
	switch {
	case cr.Tier != "":
		series = "serve_hit"
	case cr.Dedup:
		series = "serve_dedup"
	}
	rec.op(series, r.d, err)
	if err == nil && k.run {
		rec.add("svc.run_ms", r.resp.RunMS)
	}
}

// storeSeries maps the summed /metrics series to per-layer counters.
var storeSeries = []struct{ metric, prefix string }{
	{"store.mem_hits", `zpld_store_tier_hits_total{store="compile",tier="mem"}`},
	{"store.disk_hits", `zpld_store_tier_hits_total{store="compile",tier="disk"}`},
	{"store.peer_hits", `zpld_store_tier_hits_total{store="compile",tier="peer"}`},
	{"store.compiles", `zpld_cache_misses_total`},
	{"peer.failed_calls", `zpld_peer_gets_total{outcome="timeout"}`},
	{"peer.failed_calls", `zpld_peer_gets_total{outcome="error"}`},
	{"peer.failed_calls", `zpld_peer_puts_total{outcome="error"}`},
	{"peer.breaker_trips", `zpld_peer_breaker_trips_total`},
}

// scrapeClient keeps no connection open once a scrape is done.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}

// scrape sums the store and peer counters of every node's /metrics.
// Peer families carry a peer label first, so they match after removing
// it.
func scrape(addrs []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, s := range storeSeries {
		out[s.metric] = 0
	}
	for _, a := range addrs {
		resp, err := scrapeClient.Get("http://" + a + "/metrics")
		if err != nil {
			return out, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			sp := strings.LastIndexByte(line, ' ')
			if strings.HasPrefix(line, "#") || sp < 0 {
				continue
			}
			series := dropPeerLabel(line[:sp])
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			for _, s := range storeSeries {
				if series == s.prefix {
					out[s.metric] += v
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// dropPeerLabel removes a leading peer="..." label from a series name.
func dropPeerLabel(series string) string {
	name, labels, ok := strings.Cut(series, "{")
	if !ok || !strings.HasPrefix(labels, `peer="`) {
		return series
	}
	end := strings.Index(labels[len(`peer="`):], `"`)
	if end < 0 {
		return series
	}
	rest := strings.TrimPrefix(labels[len(`peer="`)+end+1:], ",")
	if rest == "}" {
		return name
	}
	return name + "{" + rest
}

func (w *serveWL) named(rec *recorder) map[string]sample {
	reqs := len(rec.series["serve_hit"]) + len(rec.series["serve_miss"]) + len(rec.series["serve_dedup"])
	return map[string]sample{
		"serve_hit_ms_p50":  rec.pct("serve_hit", 0.5),
		"serve_hit_ms_p99":  rec.pct("serve_hit", 0.99),
		"serve_miss_ms_p50": rec.pct("serve_miss", 0.5),
		"serve_miss_ms_p90": rec.pct("serve_miss", 0.9),
		"serve_req_per_s":   {value: float64(reqs) / sum(rec.series["serve_pass_s"]), n: reqs},
	}
}

// layers reports the client-side latency of /compile hits per serving
// tier from the traced rounds' spans, the store and peer counters per
// round (both passes), and the service's own run times.
func (w *serveWL) layers(rounds [][]span, rec *recorder) map[string]float64 {
	tier := map[string][]float64{}
	for _, spans := range rounds {
		for _, s := range spans {
			if s.Name == "http/compile" {
				tier[s.Tag] = append(tier[s.Tag], ms(s.End-s.Start))
			}
		}
	}
	out := map[string]float64{
		"store.mem_hit_ms_p50":     median(tier["mem"]),
		"store.disk_hit_ms_p50":    median(tier["disk"]),
		"store.peer_hit_ms_p50":    median(tier["peer"]),
		"svc.run_ms_p50":           median(rec.series["svc.run_ms"]),
		"svc.rejected":             median(rec.series["svc.rejected"]),
		"store.duplicate_compiles": median(rec.series["store.duplicate_compiles"]),
	}
	for _, s := range storeSeries {
		out[s.metric] = median(rec.series["cold."+s.metric]) + median(rec.series["warm."+s.metric])
	}
	hits := out["store.mem_hits"] + out["store.disk_hits"] + out["store.peer_hits"]
	out["store.hit_ratio"] = hits / (hits + out["store.compiles"])
	return out
}
