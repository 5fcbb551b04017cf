// Package nodemgr implements the node management algorithm of the paper
// (Listing 3, Section 3.3): the slurmd/task-affinity layer that decides
// which cores of a shared node each job's tasks run on.
//
// Its policy follows the paper's findings: jobs sharing a node are
// isolated on separate sockets (best overall performance on MareNostrum4),
// the SharingFactor bounds how many resources a shrunk owner cedes, cores
// return to their owner when a guest ends, and a surviving job absorbs the
// cores of a finished co-resident to raise node utilisation.
package nodemgr

import (
	"fmt"
	"slices"

	"sdpolicy/internal/cluster"
	"sdpolicy/internal/drom"
	"sdpolicy/internal/job"
)

// Manager drives core distribution on every node, mutating the cluster
// bookkeeping and the DROM registry together.
type Manager struct {
	cl  *cluster.Cluster
	reg *drom.Registry
	sf  float64
	// precomputed split for the default owner+guest sharing
	ownerKeep int
	guestGet  int
	// Masks of the three fixed layouts: a whole node, a shrunk owner's
	// cores and a guest's cores. The registry copies what it is given,
	// so one instance of each serves every node.
	fullMask  drom.Mask
	keepMask  drom.Mask
	guestMask drom.Mask
	// scratch reused across Finish calls (a Manager is single-threaded,
	// driven by one event loop); relayMask holds one relayout mask at a
	// time.
	relayMask drom.Mask
	restBuf   []cluster.Alloc
	expBuf    []int
	affBuf    []job.ID
}

// New returns a manager applying the given SharingFactor, the fraction of
// a node's cores a shrunk owner keeps (0.5 in the paper: one of two
// sockets). The factor must be in (0, 1).
func New(cl *cluster.Cluster, reg *drom.Registry, sharingFactor float64) *Manager {
	if sharingFactor <= 0 || sharingFactor >= 1 {
		panic(fmt.Sprintf("nodemgr: sharing factor %v out of (0,1)", sharingFactor))
	}
	cfg := cl.Config()
	keep, give := splitCores(cfg, sharingFactor)
	full := cfg.CoresPerNode()
	return &Manager{
		cl: cl, reg: reg, sf: sharingFactor, ownerKeep: keep, guestGet: give,
		fullMask:  drom.RangeMask(full, 0, full),
		keepMask:  drom.RangeMask(full, 0, keep),
		guestMask: drom.RangeMask(full, keep, full),
		relayMask: drom.NewMask(full),
	}
}

// splitCores computes how a node divides between a shrunk owner and a
// guest: socket-aligned when the node has more than one socket (the
// paper's isolation result), core-aligned otherwise.
func splitCores(cfg cluster.Config, sf float64) (keep, give int) {
	total := cfg.CoresPerNode()
	if cfg.Sockets > 1 {
		ks := int(float64(cfg.Sockets)*sf + 0.5)
		if ks < 1 {
			ks = 1
		}
		if ks > cfg.Sockets-1 {
			ks = cfg.Sockets - 1
		}
		keep = ks * cfg.CoresPerSocket
	} else {
		keep = int(float64(total)*sf + 0.5)
		if keep < 1 {
			keep = 1
		}
		if keep > total-1 {
			keep = total - 1
		}
	}
	return keep, total - keep
}

// SharingFactor returns the configured factor.
func (m *Manager) SharingFactor() float64 { return m.sf }

// OwnerKeepCores returns the per-node cores a shrunk owner keeps.
func (m *Manager) OwnerKeepCores() int { return m.ownerKeep }

// GuestCores returns the per-node cores a guest receives at start.
func (m *Manager) GuestCores() int { return m.guestGet }

// PlaceOwner allocates n free nodes to the job with full-node masks,
// registering one DROM process per node.
func (m *Manager) PlaceOwner(id job.ID, n int) ([]int, error) {
	return m.PlaceOwnerWith(id, n, nil)
}

// PlaceOwnerWith is PlaceOwner restricted to nodes carrying every
// required feature tag (SLURM-style constraints).
func (m *Manager) PlaceOwnerWith(id job.ID, n int, features []string) ([]int, error) {
	nodes, err := m.cl.AllocateFreeWith(id, n, features)
	if err != nil {
		return nil, err
	}
	for _, nd := range nodes {
		if err := m.reg.Register(nd, id, m.fullMask); err != nil {
			panic(fmt.Sprintf("nodemgr: register owner: %v", err))
		}
	}
	return nodes, nil
}

// Mate names one running job that shrinks to host a guest, with the nodes
// it contributes.
type Mate struct {
	ID    job.ID
	Nodes []int
}

// StartGuest shrinks every mate to OwnerKeepCores on each contributed
// node and registers the guest on the complementary cores. It returns the
// accumulated DROM overhead in seconds.
//
// Preconditions (the scheduler's mate selection guarantees them): each
// mate currently holds its full nodes exclusively.
func (m *Manager) StartGuest(guest job.ID, mates []Mate) int64 {
	full := m.cl.Config().CoresPerNode()
	var overhead int64
	for _, mate := range mates {
		for _, nd := range mate.Nodes {
			if got := m.cl.CoresOf(nd, mate.ID); got != full {
				panic(fmt.Sprintf("nodemgr: mate %d holds %d cores on node %d, want full %d",
					mate.ID, got, nd, full))
			}
			m.cl.SetCores(nd, mate.ID, m.ownerKeep)
			oh, err := m.reg.SetMask(nd, mate.ID, m.keepMask)
			if err != nil {
				panic(fmt.Sprintf("nodemgr: shrink mate: %v", err))
			}
			overhead += oh
			m.cl.PlaceGuest(guest, nd, m.guestGet)
			if err := m.reg.Register(nd, guest, m.guestMask); err != nil {
				panic(fmt.Sprintf("nodemgr: register guest: %v", err))
			}
		}
	}
	return overhead
}

// Finish removes the job from every listed node and redistributes the
// freed cores (Listing 3): on each node, remaining jobs for which
// canExpand reports true divide the newly freed cores (whole node when
// one job remains — the owner expanding after its guest, or the guest
// absorbing a finished owner). Jobs whose shares changed are returned,
// sorted and deduplicated, so the caller can refresh their progress
// rates. The DROM overhead in seconds is returned alongside.
// The returned slice is scratch owned by the Manager: it is only valid
// until the next Finish call.
func (m *Manager) Finish(id job.ID, nodes []int, canExpand func(job.ID) bool) (affected []job.ID, overhead int64) {
	full := m.cl.Config().CoresPerNode()
	m.affBuf = m.affBuf[:0]
	for _, nd := range nodes {
		if err := m.reg.Clean(nd, id); err != nil {
			panic(fmt.Sprintf("nodemgr: clean: %v", err))
		}
		m.cl.Release(nd, id)
		rest := m.cl.AllocsInto(m.restBuf[:0], nd)
		m.restBuf = rest[:0]
		if len(rest) == 0 {
			continue
		}
		// Sort residents owner-first then by id for a deterministic layout.
		slices.SortFunc(rest, func(a, b cluster.Alloc) int {
			if a.Owner != b.Owner {
				if a.Owner {
					return -1
				}
				return 1
			}
			return int(a.Job) - int(b.Job)
		})
		used := 0
		for _, a := range rest {
			used += a.Cores
		}
		free := full - used
		if free > 0 {
			expandable := m.expBuf[:0]
			for i, a := range rest {
				if canExpand(a.Job) {
					expandable = append(expandable, i)
				}
			}
			m.expBuf = expandable[:0]
			for k, i := range expandable {
				share := free / len(expandable)
				if k < free%len(expandable) {
					share++
				}
				if share == 0 {
					continue
				}
				rest[i].Cores += share
				m.cl.SetCores(nd, rest[i].Job, rest[i].Cores)
				m.affBuf = append(m.affBuf, rest[i].Job)
			}
		}
		// Reassign contiguous masks in the deterministic order.
		at := 0
		for _, a := range rest {
			m.relayMask.SetRange(at, at+a.Cores)
			oh, err := m.reg.SetMask(nd, a.Job, m.relayMask)
			if err != nil {
				panic(fmt.Sprintf("nodemgr: relayout: %v", err))
			}
			overhead += oh
			at += a.Cores
		}
	}
	// Sort + dedup replaces the old map: same set, same order, no
	// per-call allocation.
	slices.Sort(m.affBuf)
	m.affBuf = slices.Compact(m.affBuf)
	return m.affBuf, overhead
}

// ExpandToFull restores the job to full cores on each listed node —
// used when a guest ends and the owner expands back (Listing 3's
// expand_job). The nodes must host only this job afterwards.
func (m *Manager) ExpandToFull(id job.ID, nodes []int) int64 {
	full := m.cl.Config().CoresPerNode()
	var overhead int64
	for _, nd := range nodes {
		m.cl.SetCores(nd, id, full)
		oh, err := m.reg.SetMask(nd, id, m.fullMask)
		if err != nil {
			panic(fmt.Sprintf("nodemgr: expand: %v", err))
		}
		overhead += oh
	}
	return overhead
}

// Shares returns the job's current core count on each of the given nodes,
// in node order — the input of the runtime model's Rate function.
func (m *Manager) Shares(id job.ID, nodes []int) []int {
	return m.SharesInto(make([]int, 0, len(nodes)), id, nodes)
}

// SharesInto is Shares appending into a caller-owned buffer, for hot
// paths that query shares once per scheduling pass.
func (m *Manager) SharesInto(buf []int, id job.ID, nodes []int) []int {
	for _, nd := range nodes {
		buf = append(buf, m.cl.CoresOf(nd, id))
	}
	return buf
}
