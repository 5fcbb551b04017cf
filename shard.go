package sdpolicy

import (
	"fmt"

	"sdpolicy/internal/campaign"
)

// CampaignShard is one self-describing slice of a campaign: the points
// it owns plus their positions in the original point list. A shard
// needs no state beyond itself — its points carry their full derivation
// chains in wire form — so shards can run in separate processes
// (sdexp -shard i/n job arrays) or on separate machines (the sdserve
// coordinator), in any order, and still merge byte-identically to a
// single-process run.
type CampaignShard struct {
	// Index is the shard's 0-based number; Of the plan's shard count.
	Index int `json:"index"`
	Of    int `json:"of"`
	// Positions are the original-list positions this shard owns,
	// ascending; Points[i] is the original point at Positions[i].
	Positions []int   `json:"positions"`
	Points    []Point `json:"points"`
}

// PlanShards deterministically partitions points into n shards such
// that running each shard independently and merging with
// MergeShardResults reproduces Engine.Run over the full list exactly.
// Assignment happens over canonical keys: two spellings of the same
// simulation (e.g. a legacy malleable_fraction field versus the
// equivalent leading derivation) always land in one shard, so no point
// simulates twice across the plan. Every point is validated up front —
// a shard plan over invalid points would fail only on whichever worker
// drew them, which is the wrong place to discover a typo.
func PlanShards(points []Point, n int) ([]CampaignShard, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sdpolicy: planning %d shards: %w", n, ErrBadInput)
	}
	keys, err := canonicalKeys(points)
	if err != nil {
		return nil, err
	}
	plan := campaign.Plan(keys, n)
	shards := make([]CampaignShard, len(plan))
	for i, s := range plan {
		cs := CampaignShard{Index: s.Index, Of: s.Of, Positions: s.Positions}
		cs.Points = make([]Point, len(s.Positions))
		for j, pos := range s.Positions {
			cs.Points[j] = points[pos]
		}
		shards[i] = cs
	}
	return shards, nil
}

// canonicalKeys validates every point and returns its canonical cache
// key, labelling an invalid point with its index.
func canonicalKeys(points []Point) ([]Point, error) {
	keys := make([]Point, len(points))
	for i, p := range points {
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		keys[i] = p.canonical()
	}
	return keys, nil
}

// DefaultShardsPerWorker is the shard-granularity factor PlanFleetShards
// applies when the caller passes perWorker <= 0: four shards per worker
// keeps the hand-out queue deep enough that heterogeneous-speed workers
// and late joiners rebalance by stealing, without planning so many
// shards that per-shard overhead dominates.
const DefaultShardsPerWorker = 4

// PlanFleetShards plans a campaign for a fleet of `fleet` workers at a
// granularity of perWorker shards each (DefaultShardsPerWorker when
// <= 0). Finer-than-fleet shards are what make elastic fleets rebalance:
// handed out work-stealing style, a fast worker simply takes more of
// them, and a worker that joins mid-campaign steals from the remaining
// queue instead of waiting for the next campaign. The merged output is
// byte-identical to a single-process run regardless of fleet size or
// granularity — shard assignment only moves work, never changes it.
func PlanFleetShards(points []Point, fleet, perWorker int) ([]CampaignShard, error) {
	if fleet <= 0 {
		return nil, fmt.Errorf("sdpolicy: planning shards for a fleet of %d workers: %w", fleet, ErrBadInput)
	}
	if perWorker <= 0 {
		perWorker = DefaultShardsPerWorker
	}
	return PlanShards(points, fleet*perWorker)
}

// MergeShardResults reassembles per-shard campaign results into the
// full slice Engine.Run would return over the original total-length
// point list: merged[p] is the result for original position p.
// results[i] must align with shards[i].Positions (the order
// Engine.Run returns when handed shards[i].Points); shard/result pairs
// may arrive in any order. Coverage is verified — an unresolved or
// doubly-resolved position is an error, never a silent nil result.
func MergeShardResults(total int, shards []CampaignShard, results [][]*Result) ([]*Result, error) {
	plan := make([]campaign.Shard[Point], len(shards))
	for i, s := range shards {
		plan[i] = campaign.Shard[Point]{Index: s.Index, Of: s.Of, Positions: s.Positions, Keys: s.Points}
	}
	return campaign.MergeShards(total, plan, results)
}

// PlanResume narrows a campaign to what a checkpoint set has not yet
// resolved: given the original point list and the completed original
// positions (a journal's result records), it returns the remaining
// positions in ascending order and the points at them. Running the
// returned points and writing each result back to remaining[i] — which
// is what the durable campaign plane's resume path does — yields output
// identical to a run that was never interrupted, with zero
// re-simulation of checkpointed positions. An invalid checkpoint set
// (out-of-range or duplicated position) is an error tagged ErrBadInput.
func PlanResume(points []Point, done []int) (remaining []int, pts []Point, err error) {
	remaining, err = campaign.Remaining(len(points), done)
	if err != nil {
		return nil, nil, fmt.Errorf("sdpolicy: %w: %w", err, ErrBadInput)
	}
	pts = make([]Point, len(remaining))
	for i, pos := range remaining {
		pts[i] = points[pos]
	}
	return remaining, pts, nil
}
