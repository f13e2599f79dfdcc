package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/sim"
)

// wireRequest is the serialized subset of sim.Request the distributed
// service accepts: one sampling plan over one workload. Modes that are
// local by nature — experiments, procedures, multi-offset phase runs,
// the classic serial loop — are rejected at the client (see
// distributable). Worker-pool sizing is a per-worker deployment
// setting, so Request.Workers does not travel.
type wireRequest struct {
	Workload string
	Length   uint64
	// Config is the simulated machine; nil selects the 8-way baseline
	// (mirroring the zero sim.Config).
	Config *uarch.Config

	U, W, N, K, J uint64
	Warming       int
	MaxUnits      int
	NoStore       bool
	Alpha         float64
}

// distributable rejects request modes the service does not shard.
func distributable(req *sim.Request) error {
	switch {
	case req == nil:
		return fmt.Errorf("dist: nil request")
	case req.Experiment != "":
		return fmt.Errorf("dist: experiment requests are not distributable; run them on a local session")
	case req.Procedure != nil:
		return fmt.Errorf("dist: procedure requests are not distributable; drive the two-step procedure from the client")
	case len(req.Offsets) > 0:
		return fmt.Errorf("dist: multi-offset phase requests are not distributable")
	case req.SerialLoop:
		return fmt.Errorf("dist: the classic serial loop cannot be sharded (its units are not independent)")
	case req.Output != nil:
		return fmt.Errorf("dist: Output streams experiment text; it does not apply to distributed runs")
	case req.Workload == "":
		return fmt.Errorf("dist: request names no workload")
	case req.Alpha != 0 && (req.Alpha <= 0 || req.Alpha >= 1):
		return fmt.Errorf("dist: confidence parameter %v outside (0,1)", req.Alpha)
	}
	return nil
}

// wireFromRequest validates and serializes a request for the wire.
func wireFromRequest(req *sim.Request) (*wireRequest, error) {
	if err := distributable(req); err != nil {
		return nil, err
	}
	wr := &wireRequest{
		Workload: req.Workload,
		Length:   req.Length,
		U:        req.U,
		W:        req.W,
		N:        req.N,
		K:        req.K,
		J:        req.J,
		Warming:  int(req.Warming),
		MaxUnits: req.MaxUnits,
		NoStore:  req.NoStore,
		Alpha:    req.Alpha,
	}
	if req.Config != (sim.Config{}) {
		cfg := req.Config
		wr.Config = &cfg
	}
	return wr, nil
}

// request reconstructs the sim.Request a wireRequest describes.
func (wr *wireRequest) request() *sim.Request {
	req := &sim.Request{
		Workload: wr.Workload,
		Length:   wr.Length,
		U:        wr.U,
		W:        wr.W,
		N:        wr.N,
		K:        wr.K,
		J:        wr.J,
		Warming:  sim.WarmingMode(wr.Warming),
		MaxUnits: wr.MaxUnits,
		NoStore:  wr.NoStore,
		Alpha:    wr.Alpha,
	}
	if wr.Config != nil {
		req.Config = *wr.Config
	}
	return req
}

// runSpec is everything a worker needs to materialize a run's snapshot
// set: the workload regenerates deterministically from (name, length),
// the plan fixes the unit selection, and together with the config they
// derive the content-addressed sweep key. The coordinator resolves the
// request against the generated workload once and ships the resulting
// plan — a smarts.Plan is the sampling design only, so it travels as it
// is — and every shard of a run, including retries on other workers and
// a journaled run recovered after a restart, replays under the
// identical plan.
type runSpec struct {
	Workload string
	Length   uint64
	Config   uarch.Config
	Plan     smarts.Plan
}

// shardMsg assigns one contiguous range [Lo, Hi) of stream positions to
// a worker. Shard/Shards locate the range in the run for progress
// events.
type shardMsg struct {
	Spec          runSpec
	Lo, Hi        int
	Shard, Shards int
}

// wireUnit is one replayed unit streamed back from a worker: the wire
// form of an engine.RangeUnit, carrying the full engine measurement so
// the coordinator's engine.Merger reproduces a local run's accounting
// bit for bit (float64 fields round-trip JSON exactly). Digest seals
// the measurement end to end: the worker computes it at replay, the
// coordinator recomputes it before every Merger offer and before
// replaying a journaled unit at recovery, so a corrupt frame — on the
// wire, in a misbehaving worker, or in the run journal — is detected
// instead of folded into the estimate.
type wireUnit struct {
	Seq       int
	Index     uint64
	Cycles    uint64
	EnergyNJ  float64
	CPI, EPI  float64
	Warming   uint64
	ElapsedNs int64
	Partial   bool
	Digest    uint32 `json:",omitempty"`
}

// sealUnit converts a replayed unit to its wire form and seals it.
func sealUnit(ru engine.RangeUnit) *wireUnit {
	u := &wireUnit{
		Seq:       ru.Seq,
		Index:     ru.Res.Index,
		Cycles:    ru.Res.Cycles,
		EnergyNJ:  ru.Res.EnergyNJ,
		CPI:       ru.Res.CPI,
		EPI:       ru.Res.EPI,
		Warming:   ru.Warming,
		ElapsedNs: int64(ru.Elapsed),
		Partial:   ru.Partial,
	}
	u.Digest = u.digest()
	return u
}

// rangeUnit converts a (verified) wire unit back for the Merger.
func (u *wireUnit) rangeUnit() engine.RangeUnit {
	return engine.RangeUnit{
		Seq: u.Seq,
		Res: engine.UnitResult{
			Index:    u.Index,
			Cycles:   u.Cycles,
			EnergyNJ: u.EnergyNJ,
			CPI:      u.CPI,
			EPI:      u.EPI,
		},
		Warming: u.Warming,
		Elapsed: time.Duration(u.ElapsedNs),
		Partial: u.Partial,
	}
}

// digest computes the unit's CRC-32C over every measurement field that
// feeds the merged estimate. ElapsedNs is excluded: it is per-worker
// wall clock, reported for observability, and irrelevant to the result.
func (u *wireUnit) digest() uint32 {
	var b [57]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(int64(u.Seq)))
	binary.LittleEndian.PutUint64(b[8:], u.Index)
	binary.LittleEndian.PutUint64(b[16:], u.Cycles)
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(u.EnergyNJ))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(u.CPI))
	binary.LittleEndian.PutUint64(b[40:], math.Float64bits(u.EPI))
	binary.LittleEndian.PutUint64(b[48:], u.Warming)
	if u.Partial {
		b[56] = 1
	}
	return crc32.Checksum(b[:], wireCastagnoli)
}

// wireCastagnoli mirrors the checkpoint store's CRC-32C table for the
// dist layer's wire and journal digests.
var wireCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// shardDone is a shard stream's trailer: the sweep accounting of the
// set the shard replayed from.
type shardDone struct {
	Captured    int
	Population  uint64
	SweepInsts  uint64
	SweepTimeNs int64
	// Swept reports this worker ran the functional sweep itself (the
	// fleet singleflight made it the owner) rather than fetching it.
	Swept bool
}

// shardRecord is one NDJSON record of a worker's shard stream; exactly
// one field is set.
type shardRecord struct {
	// Captured reports sweep progress while this worker owns the
	// capture (cumulative captured-unit count).
	Captured int        `json:"captured,omitempty"`
	Unit     *wireUnit  `json:"unit,omitempty"`
	Done     *shardDone `json:"done,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Retry reports a transient worker→coordinator RPC failure being
	// retried with backoff; the coordinator forwards it as an
	// EventRetry progress event.
	Retry *wireRetry `json:"retry,omitempty"`
}

// wireRetry describes one retried RPC attempt.
type wireRetry struct {
	Op      string
	Attempt int
	Err     string
}

// claimMsg asks the coordinator who owns the sweep for a key hash.
type claimMsg struct {
	Hash  string
	Owner string
}

// Claim states.
const (
	claimOwner = "owner" // caller sweeps and uploads
	claimWait  = "wait"  // another worker is sweeping; poll
	claimReady = "ready" // the sweep is available; fetch it
)

type claimReply struct {
	State string
	// LeaseNs is the coordinator's claim lease TTL: an owner that
	// neither finishes nor renews (by re-claiming) within the lease
	// loses the sweep to the next poller. Owners renew at LeaseNs/3.
	LeaseNs int64
}

// wireProgress is a sim.Progress event on the run stream.
type wireProgress struct {
	Kind       int
	Stage      string
	Offset     uint64
	Captured   int
	Replayed   int
	Estimate   stats.Estimate
	Cached     bool
	Population uint64
	Total      int
	ETANs      int64
	Shard      int
	Shards     int
	Attempt    int
	Note       string
}

func wireFromProgress(ev sim.Progress) wireProgress {
	return wireProgress{
		Kind: int(ev.Kind), Stage: ev.Stage, Offset: ev.Offset,
		Captured: ev.Captured, Replayed: ev.Replayed, Estimate: ev.Estimate,
		Cached: ev.Cached, Population: ev.Population, Total: ev.Total,
		ETANs: int64(ev.ETA), Shard: ev.Shard, Shards: ev.Shards,
		Attempt: ev.Attempt, Note: ev.Note,
	}
}

func (wp wireProgress) progress() sim.Progress {
	return sim.Progress{
		Kind: sim.EventKind(wp.Kind), Stage: wp.Stage, Offset: wp.Offset,
		Captured: wp.Captured, Replayed: wp.Replayed, Estimate: wp.Estimate,
		Cached: wp.Cached, Population: wp.Population, Total: wp.Total,
		ETA: time.Duration(wp.ETANs), Shard: wp.Shard, Shards: wp.Shards,
		Attempt: wp.Attempt, Note: wp.Note,
	}
}

// wireReport is the final record of a run stream. The result's
// Duration fields are int64 nanoseconds in JSON and round-trip exactly.
type wireReport struct {
	Result    *smarts.Result
	CPI, EPI  stats.Estimate
	ElapsedNs int64
}

// runEnvelope is one NDJSON record of a coordinator run stream; exactly
// one of Progress/Report/Error is set, and a Report or Error record is
// final. Seq is the envelope's 1-based position in the run's event
// history: a client that lost its stream re-attaches with
// ?from=<last Seq> and receives only the suffix, giving exactly-once
// delivery across coordinator restarts and dropped connections.
type runEnvelope struct {
	Seq      int64         `json:"seq,omitempty"`
	Progress *wireProgress `json:"progress,omitempty"`
	Report   *wireReport   `json:"report,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// runCreated is the coordinator's reply to POST /v1/runs: the accepted
// run's stable ID and the coordinator's epoch nonce. A client seeing a
// different epoch on re-attach knows the coordinator restarted and its
// ?from high-water mark refers to a dead event history; the stream
// restarts from the journal-recovered history instead.
type runCreated struct {
	ID    string
	Epoch string
}

// registerMsg announces a worker to the coordinator. IntervalNs, when
// positive, is the worker's heartbeat interval: the coordinator stops
// dispatching to a worker silent for three intervals (and revives it on
// the next beat).
type registerMsg struct {
	URL        string
	IntervalNs int64
}

// heartbeatMsg is a worker liveness beat.
type heartbeatMsg struct {
	URL string
}
