// Package cluster turns flatnetd into a horizontally scalable service: a
// coordinator partitions all-AS sweeps, wide batch requests, and leak-trial
// batches into 64-origin-aligned shards, fans them out over registered
// workers, and merges the partials. Workers sync state by content address —
// the snapshot codec produces byte-identical worlds, so a worker proves it
// serves the same world by hash instead of re-generating it, and fetches the
// v2 snapshot over HTTP when it has none.
//
// The package is deliberately independent of the serving layer: it speaks
// a small HTTP protocol — JSON request envelopes (this file) answered by
// length-prefixed binary frames (wirecodec.go), one per requested shard —
// and takes the coordinator's local compute as plain closures, so
// internal/serve can mount the worker endpoints while the Pool stays
// testable against fake workers. The protocol has one version, checked once
// at join (JoinRequest.Wire). Shard results are deterministic and
// per-origin independent, which is what makes the whole design safe: any
// partition of the work, executed anywhere, merges back to exactly the
// single-process answer.
package cluster

// Worker-side endpoint paths, mounted by internal/serve on every daemon
// (any flatnetd can serve shards; a coordinator is just the one fanning
// them out).
const (
	// PathInfo describes the served world: content address, snapshot
	// availability, preset year.
	PathInfo = "/v1/cluster/info"
	// PathSnapshot streams the coordinator's v2 snapshot bytes.
	PathSnapshot = "/v1/cluster/snapshot"
	// PathJoin registers a worker with the coordinator.
	PathJoin = "/v1/cluster/join"
	// PathSweep computes reachability counts for a shard: dense index
	// ranges or an explicit origin list.
	PathSweep = "/v1/cluster/sweep"
	// PathLeak replays a sub-range of a leak-trial batch.
	PathLeak = "/v1/cluster/leak"
)

// laneWidth is the bit-parallel engine's origin word width
// (bgpsim.BatchLanes). Shard boundaries are multiples of it so every
// propagation word stays full.
const laneWidth = 64

// Info describes a node's served world (GET PathInfo).
type Info struct {
	// World is the content address of the served dataset: a sha256 over
	// the frozen topology arrays and tier sets (DatasetHash). Workers must
	// match it exactly to join — it is what guarantees dense graph indexes
	// mean the same AS on every node.
	World string `json:"world"`
	// SnapshotSHA is the sha256 of the snapshot file the node can serve
	// over PathSnapshot, or "" when it has none (e.g. a -topo world).
	SnapshotSHA string `json:"snapshot_sha256,omitempty"`
	// SnapshotSize is the snapshot's byte length (0 when none).
	SnapshotSize int64 `json:"snapshot_size,omitempty"`
	// Year is the preset year the node serves (which internet section a
	// fetched snapshot should be opened at).
	Year int `json:"year"`
	// ASes and Links describe the topology, for operator sanity checks.
	ASes  int `json:"ases"`
	Links int `json:"links"`
}

// JoinRequest registers a worker (POST PathJoin).
type JoinRequest struct {
	// Addr is the worker's externally reachable base URL.
	Addr string `json:"addr"`
	// World must equal the coordinator's world content address.
	World string `json:"world"`
	// Slots is how many shards the worker computes concurrently (its
	// serving concurrency limit), in [1, MaxSlots].
	Slots int `json:"slots"`
	// Wire must equal the coordinator's WireVersion: the one place the
	// shard protocol's version is checked, so every registered worker
	// speaks exactly the coordinator's frames.
	Wire int `json:"wire"`
}

// MaxSlots bounds a joining worker's Slots. The coordinator runs one
// puller goroutine per slot for every wide query, so a join claiming more
// is refused rather than taken at its word.
const MaxSlots = 1024

// JoinResponse acknowledges a join.
type JoinResponse struct {
	// Workers is the pool size after the join.
	Workers int `json:"workers"`
}

// SweepRequest asks a worker for reachability counts (POST PathSweep) in
// one of two forms: dense index ranges for all-AS sweeps — Ranges, or the
// single range [Lo, Hi), which means the same as a one-element Ranges — or
// an explicit Origins list (ASNs) for batch queries. A request mixing the
// forms is refused. The response is one length-prefixed counts frame per
// range (NextFrame), in request order; an origin list is one frame.
type SweepRequest struct {
	Kind    string   `json:"kind"`
	Lo      int      `json:"lo"`
	Hi      int      `json:"hi"`
	Origins []uint32 `json:"origins,omitempty"`
	// Ranges lets one request carry several shards: the coordinator
	// coalesces the shards a puller drains from its queue into one round
	// trip whose frames decode straight into disjoint merge slices.
	Ranges []Range `json:"ranges,omitempty"`
}

// Range is one [Lo, Hi) member of a multi-range sweep request.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// LeakQuery identifies one leak-trial batch. Leakers are sampled
// deterministically from (Origin, Trials, Seed) on every node, so a
// sub-range [lo, hi) of the sample means the same leakers everywhere.
type LeakQuery struct {
	Origin   uint32 `json:"origin"`
	Scenario string `json:"scenario"`
	Hijack   bool   `json:"hijack"`
	Trials   int    `json:"trials"`
	Seed     int64  `json:"seed"`
}

// LeakRequest asks a worker to replay leakers [Lo, Hi) of the query's
// deterministic sample (POST PathLeak). The response is one length-prefixed
// fracs frame: one detoured fraction per replayed leaker, in sample order.
type LeakRequest struct {
	LeakQuery
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}
