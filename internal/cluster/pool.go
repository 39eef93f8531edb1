package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSaturated is returned when the pool has more concurrent fan-out
// queries than MaxQueries: admitting another would only queue it behind
// work the workers cannot absorb, so the caller should shed it instead
// (the serving layer maps this to HTTP 429 + Retry-After).
var ErrSaturated = errors.New("cluster: worker pool saturated")

// errNoWorkers is returned when a fan-out finds neither a healthy worker
// nor a local fallback.
var errNoWorkers = errors.New("cluster: no healthy workers and no local fallback")

// PoolConfig parameterizes a Pool. The zero value of every knob picks the
// documented default.
type PoolConfig struct {
	// World is the content address every joining worker must match.
	World string

	// MaxQueries bounds concurrently fanning-out queries; excess queries
	// are shed with ErrSaturated (default 8).
	MaxQueries int
	// MaxAttempts bounds how many times one shard is tried across workers
	// before it drains through the local fallback, or fails the whole
	// query without one (default 4).
	MaxAttempts int
	// ShardBlocks caps one shard's size in 64-origin blocks (default 64,
	// i.e. 4096 origins), keeping shards small enough to retry cheaply and
	// to keep every worker busy near the end of a sweep.
	ShardBlocks int

	// HealthInterval is the background health-probe period (default 2s);
	// ProbeTimeout bounds one probe (default 1s).
	HealthInterval time.Duration
	ProbeTimeout   time.Duration

	// LocalSweep, LocalBatch and LocalLeak compute one shard on the
	// coordinator itself. They are the fallback of last resort: used only
	// once every puller of a query is gone, or a shard has run out of
	// attempts, so a dying cluster degrades to single-process service
	// instead of failing.
	LocalSweep func(ctx context.Context, kind string, lo, hi int) ([]int, error)
	LocalBatch func(ctx context.Context, kind string, origins []uint32) ([]int, error)
	LocalLeak  func(ctx context.Context, q LeakQuery, lo, hi int) ([]float64, error)
}

// shardTimeout bounds one worker request. The worker is told the same
// bound as its compute deadline, so a stalled worker is an ordinary failed
// attempt rather than a query that waits out its own deadline.
const shardTimeout = 30 * time.Second

// httpClient carries every worker request, with generous per-host
// keep-alive connections so a fan-out reuses its sockets.
var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}}

func (c *PoolConfig) fillDefaults() {
	if c.MaxQueries <= 0 {
		c.MaxQueries = 8
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.ShardBlocks <= 0 {
		c.ShardBlocks = 64
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
}

// Worker is one registered shard server. All mutable state is atomic; the
// dispatcher and the health prober touch it concurrently.
type Worker struct {
	// Addr is the worker's base URL (http://host:port).
	Addr string

	slots    int
	healthy  atomic.Bool
	inflight atomic.Int64
	shards   atomic.Int64 // completed shard computations
	fails    atomic.Int64 // consecutive failures (shard or probe)
}

// Pool is the coordinator's worker registry plus the shard dispatcher.
// It is safe for concurrent use.
type Pool struct {
	cfg PoolConfig

	mu      sync.Mutex
	workers map[string]*Worker
	probing bool

	closed    chan struct{}
	closeOnce sync.Once

	queries atomic.Int64 // in-flight fan-out queries
	shed    atomic.Int64
	retries atomic.Int64
	remote  atomic.Int64 // shards merged from workers
	local   atomic.Int64 // shards merged from the local fallback

	wireBytes atomic.Int64 // frame bytes merged
	multi     atomic.Int64 // responses that carried more than one shard
}

// NewPool returns an empty pool. The health prober starts lazily on the
// first Register, so single-process servers never spawn it.
func NewPool(cfg PoolConfig) *Pool {
	cfg.fillDefaults()
	return &Pool{
		cfg:     cfg,
		workers: make(map[string]*Worker),
		closed:  make(chan struct{}),
	}
}

// Close stops the health prober. In-flight queries finish on their own.
func (p *Pool) Close() { p.closeOnce.Do(func() { close(p.closed) }) }

// World returns the content address workers must match.
func (p *Pool) World() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg.World
}

// SetWorld rotates the pool onto a new content address and drops every
// registered worker: their loaded world no longer matches, so letting them
// keep computing shards would merge answers from the wrong topology.
// Workers re-join (and 409 until they have synced the new snapshot), which
// is the same flow as a fresh cluster bootstrap. In-flight fan-outs keep
// their already-copied worker handles; those workers still hold the old
// world, so the shards they finish are consistent with the query that
// started them.
func (p *Pool) SetWorld(world string) {
	p.mu.Lock()
	p.cfg.World = world
	p.workers = make(map[string]*Worker)
	p.mu.Unlock()
}

// Register adds (or refreshes) a worker by base URL. Registration marks
// the worker healthy immediately; the prober and the dispatcher demote it
// on failures. Re-registering is idempotent, which lets workers heartbeat
// by re-joining.
func (p *Pool) Register(addr string, slots int) *Worker {
	w, _ := p.RegisterFor(addr, slots, "")
	return w
}

// RegisterFor is Register gated on the world the worker claims to serve:
// the admission check and the insertion happen under one lock acquisition,
// so a worker holding an old world can never slip into a pool that rotated
// (SetWorld) between a caller's own check and the registration. An empty
// world skips the gate.
func (p *Pool) RegisterFor(addr string, slots int, world string) (*Worker, bool) {
	addr = CanonicalAddr(addr)
	if slots < 1 {
		slots = 1
	}
	p.mu.Lock()
	if world != "" && world != p.cfg.World {
		p.mu.Unlock()
		return nil, false
	}
	w, ok := p.workers[addr]
	if !ok {
		w = &Worker{Addr: addr}
		p.workers[addr] = w
	}
	w.slots = slots
	w.fails.Store(0)
	w.healthy.Store(true)
	start := !p.probing
	p.probing = true
	p.mu.Unlock()
	if start {
		go p.probeLoop()
	}
	return w, true
}

// CanonicalAddr normalizes a worker address to a base URL without a
// trailing slash, defaulting the scheme to http.
func CanonicalAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// NumWorkers returns the number of registered workers, healthy or not.
func (p *Pool) NumWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Ready reports whether at least one healthy worker is registered — the
// serving layer's signal to route a query through the cluster rather than
// computing it in-process.
func (p *Pool) Ready() bool { return len(p.healthySlots()) > 0 }

// healthySlots lists every healthy worker once per slot. Slot counts are
// read under the pool lock, so a concurrent re-join cannot change one
// mid-read.
func (p *Pool) healthySlots() []*Worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Worker
	for _, w := range p.workers {
		if w.healthy.Load() {
			for s := 0; s < w.slots; s++ {
				out = append(out, w)
			}
		}
	}
	return out
}

// probeLoop health-checks every worker until the pool closes: dead workers
// are demoted (taking them out of dispatch) and recovered ones restored.
func (p *Pool) probeLoop() {
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-t.C:
		}
		p.mu.Lock()
		ws := make([]*Worker, 0, len(p.workers))
		for _, w := range p.workers {
			ws = append(ws, w)
		}
		p.mu.Unlock()
		for _, w := range ws {
			w.healthy.Store(p.probe(w))
		}
	}
}

func (p *Pool) probe(w *Worker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		w.fails.Add(1)
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.fails.Add(1)
		return false
	}
	w.fails.Store(0)
	return true
}

// bodyPool recycles response-body buffers across shard requests. One
// full-scale shard is ~12 KB, so after the first few fan-outs every read
// lands in an already-sized buffer and the per-shard transport cost is the
// syscalls, not the allocator.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBody() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBody(b *bytes.Buffer) { bodyPool.Put(b) }

// postShard sends one encoded shard request and returns the raw response
// body in a pooled buffer. The caller owns the buffer and must release it
// with putBody once decoded.
func (p *Pool) postShard(ctx context.Context, w *Worker, path string, body []byte) (*bytes.Buffer, error) {
	ctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Addr+path+"?timeout="+shardTimeout.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("cluster: %s%s: status %d: %s", w.Addr, path, resp.StatusCode, bytes.TrimSpace(snippet))
	}
	buf := getBody()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		putBody(buf)
		return nil, err
	}
	return buf, nil
}

// fetchFrames posts one encoded shard request and splits the response into
// one length-prefixed frame per destination, in request order. Every frame
// is vetted by check before any commit is handed back — the response is
// accepted or rejected as a unit, so a corrupt or non-frame body surfaces
// as a retryable error before the dispatcher's done-CAS. Commit k decodes
// frame k straight into dsts[k], the caller's slice of the merge output;
// the CAS runs each commit at most once. The pooled response buffer is
// returned once the last commit fires; if a query fails before every
// member commits, the buffer is left to the GC instead.
func fetchFrames[T int | float64](ctx context.Context, p *Pool, w *Worker, path string, body []byte, dsts [][]T,
	check func(frame []byte, n int) error, decode func(dst []T, frame []byte) error) ([]func(), error) {
	buf, err := p.postShard(ctx, w, path, body)
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, len(dsts))
	rest := buf.Bytes()
	for k, dst := range dsts {
		frame, next, err := NextFrame(rest)
		if err == nil {
			err = check(frame, len(dst))
		}
		if err != nil {
			putBody(buf)
			return nil, err
		}
		frames[k], rest = frame, next
	}
	if len(rest) != 0 {
		putBody(buf)
		return nil, fmt.Errorf("cluster: wire: %d trailing bytes after %d frames", len(rest), len(dsts))
	}
	if len(dsts) > 1 {
		p.multi.Add(1)
	}
	var left atomic.Int32
	left.Store(int32(len(dsts)))
	commits := make([]func(), len(dsts))
	for k := range dsts {
		commits[k] = func() {
			_ = decode(dsts[k], frames[k]) // check vetted the frame; decode cannot fail now
			p.wireBytes.Add(int64(len(frames[k])))
			if left.Add(-1) == 0 {
				putBody(buf)
			}
		}
	}
	return commits, nil
}

// WorkerStats is one worker's row in Stats.
type WorkerStats struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Slots    int    `json:"slots"`
	Inflight int64  `json:"inflight"`
	Shards   int64  `json:"shards"`
	Fails    int64  `json:"fails"`
}

// Stats is a snapshot of the pool's counters, exposed through /v1/stats.
type Stats struct {
	World        string        `json:"world"`
	Queries      int64         `json:"queries_inflight"`
	Shed         int64         `json:"shed"`
	Retries      int64         `json:"retries"`
	RemoteShards int64         `json:"remote_shards"`
	LocalShards  int64         `json:"local_shards"`
	WireBytes    int64         `json:"wire_bytes"`
	MultiBatches int64         `json:"wire_multi_batches"`
	Workers      []WorkerStats `json:"workers"`
}

// StatsSnapshot returns the pool's counters, workers sorted by address.
func (p *Pool) StatsSnapshot() Stats {
	p.mu.Lock()
	world := p.cfg.World
	ws := make([]*Worker, 0, len(p.workers))
	for _, w := range p.workers {
		ws = append(ws, w)
	}
	p.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].Addr < ws[j].Addr })
	st := Stats{
		World:        world,
		Queries:      p.queries.Load(),
		Shed:         p.shed.Load(),
		Retries:      p.retries.Load(),
		RemoteShards: p.remote.Load(),
		LocalShards:  p.local.Load(),
		WireBytes:    p.wireBytes.Load(),
		MultiBatches: p.multi.Load(),
		Workers:      make([]WorkerStats, len(ws)),
	}
	for i, w := range ws {
		st.Workers[i] = WorkerStats{
			Addr:     w.Addr,
			Healthy:  w.healthy.Load(),
			Slots:    w.slots,
			Inflight: w.inflight.Load(),
			Shards:   w.shards.Load(),
			Fails:    w.fails.Load(),
		}
	}
	return st
}
