// Package cluster models the machine: a homogeneous set of compute nodes,
// each with a fixed socket × core layout, allocated to jobs at whole-node
// granularity (the SLURM select/linear model the paper uses) but shareable
// between an owner job and guest jobs once malleability shrinks the owner.
package cluster

import (
	"fmt"

	"sdpolicy/internal/job"
)

// Config describes the hardware of a simulated system.
type Config struct {
	Nodes          int // number of compute nodes
	Sockets        int // sockets per node
	CoresPerSocket int // cores per socket
}

// CoresPerNode returns the number of cores of one node.
func (c Config) CoresPerNode() int { return c.Sockets * c.CoresPerSocket }

// TotalCores returns the number of cores of the whole machine.
func (c Config) TotalCores() int { return c.Nodes * c.CoresPerNode() }

// Validate reports the first structural problem of the configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: non-positive node count %d", c.Nodes)
	case c.Sockets <= 0:
		return fmt.Errorf("cluster: non-positive socket count %d", c.Sockets)
	case c.CoresPerSocket <= 0:
		return fmt.Errorf("cluster: non-positive cores per socket %d", c.CoresPerSocket)
	}
	return nil
}

// Alloc is the share of one node held by one job.
type Alloc struct {
	Job   job.ID
	Cores int
	Owner bool // owners were granted the node statically; guests moved in via malleability
}

// node is the per-node allocation state. Nodes typically host one owner
// and at most a few guests, so a small slice beats a map.
type node struct {
	allocs   []Alloc
	features []string
}

func (n *node) hasFeatures(req []string) bool {
	for _, want := range req {
		found := false
		for _, f := range n.features {
			if f == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (n *node) find(id job.ID) int {
	for i := range n.allocs {
		if n.allocs[i].Job == id {
			return i
		}
	}
	return -1
}

func (n *node) usedCores() int {
	total := 0
	for i := range n.allocs {
		total += n.allocs[i].Cores
	}
	return total
}

// Cluster tracks which jobs hold how many cores on which nodes.
// It is purely a bookkeeping structure: placement policy lives in
// package sched and core-to-job distribution in package nodemgr.
type Cluster struct {
	cfg       Config
	nodes     []node
	freeList  []int // free node ids, LIFO
	freePos   []int // node id -> index in freeList, -1 if busy
	usedCores int   // total cores currently assigned
}

// New returns an empty cluster. It panics on an invalid configuration;
// configurations come from code, not user input.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{
		cfg:      cfg,
		nodes:    make([]node, cfg.Nodes),
		freeList: make([]int, cfg.Nodes),
		freePos:  make([]int, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.freeList[i] = cfg.Nodes - 1 - i // pop low ids first
		c.freePos[cfg.Nodes-1-i] = i
	}
	return c
}

// Config returns the hardware description.
func (c *Cluster) Config() Config { return c.cfg }

// FreeNodes returns how many nodes currently host no job.
func (c *Cluster) FreeNodes() int { return len(c.freeList) }

// UsedCores returns the total number of cores assigned to jobs right now.
func (c *Cluster) UsedCores() int { return c.usedCores }

// BusyNodes returns Nodes - FreeNodes.
func (c *Cluster) BusyNodes() int { return c.cfg.Nodes - len(c.freeList) }

// Allocs returns a copy of the allocations on the given node.
func (c *Cluster) Allocs(nodeID int) []Alloc {
	n := &c.nodes[nodeID]
	out := make([]Alloc, len(n.allocs))
	copy(out, n.allocs)
	return out
}

// AllocsInto appends the node's allocations to buf and returns the
// extended slice — the allocation-free variant of Allocs for hot paths
// that own a reusable scratch buffer.
func (c *Cluster) AllocsInto(buf []Alloc, nodeID int) []Alloc {
	return append(buf, c.nodes[nodeID].allocs...)
}

// JobsOn returns how many jobs share the given node.
func (c *Cluster) JobsOn(nodeID int) int { return len(c.nodes[nodeID].allocs) }

// CoresOf returns how many cores the job holds on the node, 0 if absent.
func (c *Cluster) CoresOf(nodeID int, id job.ID) int {
	n := &c.nodes[nodeID]
	if i := n.find(id); i >= 0 {
		return n.allocs[i].Cores
	}
	return 0
}

// markBusy removes a node from the free list.
func (c *Cluster) markBusy(nodeID int) {
	pos := c.freePos[nodeID]
	if pos < 0 {
		panic(fmt.Sprintf("cluster: node %d already busy", nodeID))
	}
	last := len(c.freeList) - 1
	moved := c.freeList[last]
	c.freeList[pos] = moved
	c.freePos[moved] = pos
	c.freeList = c.freeList[:last]
	c.freePos[nodeID] = -1
	if moved == nodeID && pos != last {
		panic("cluster: free list corrupted")
	}
}

// markFree returns a node to the free list.
func (c *Cluster) markFree(nodeID int) {
	if c.freePos[nodeID] >= 0 {
		panic(fmt.Sprintf("cluster: node %d already free", nodeID))
	}
	c.freePos[nodeID] = len(c.freeList)
	c.freeList = append(c.freeList, nodeID)
}

// SetNodeFeatures tags a node with attribute strings (architecture,
// memory class, interconnect, ...) that jobs may require.
func (c *Cluster) SetNodeFeatures(nodeID int, features ...string) {
	c.nodes[nodeID].features = append([]string(nil), features...)
}

// NodeFeatures returns a copy of the node's feature tags.
func (c *Cluster) NodeFeatures(nodeID int) []string {
	return append([]string(nil), c.nodes[nodeID].features...)
}

// NodeHasFeatures reports whether the node carries every required tag.
func (c *Cluster) NodeHasFeatures(nodeID int, req []string) bool {
	return c.nodes[nodeID].hasFeatures(req)
}

// NodesWith returns how many nodes of the whole machine carry every
// required tag (capacity check for feature-constrained jobs).
func (c *Cluster) NodesWith(req []string) int {
	if len(req) == 0 {
		return c.cfg.Nodes
	}
	n := 0
	for i := range c.nodes {
		if c.nodes[i].hasFeatures(req) {
			n++
		}
	}
	return n
}

// FreeNodesWith returns how many currently free nodes carry every
// required tag.
func (c *Cluster) FreeNodesWith(req []string) int {
	if len(req) == 0 {
		return len(c.freeList)
	}
	n := 0
	for _, id := range c.freeList {
		if c.nodes[id].hasFeatures(req) {
			n++
		}
	}
	return n
}

// AllocateFree grants n free nodes, full cores each, to the job as owner.
// It returns the node ids, or an error if fewer than n nodes are free.
func (c *Cluster) AllocateFree(id job.ID, n int) ([]int, error) {
	return c.AllocateFreeWith(id, n, nil)
}

// AllocateFreeWith is AllocateFree restricted to nodes carrying every
// required feature tag.
func (c *Cluster) AllocateFreeWith(id job.ID, n int, req []string) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive node request %d", n)
	}
	// Collect matching free nodes first so failure leaks no state.
	matching := make([]int, 0, n)
	for i := len(c.freeList) - 1; i >= 0 && len(matching) < n; i-- {
		nd := c.freeList[i]
		if len(req) == 0 || c.nodes[nd].hasFeatures(req) {
			matching = append(matching, nd)
		}
	}
	if len(matching) < n {
		return nil, fmt.Errorf("cluster: %d matching free nodes, %d requested", len(matching), n)
	}
	for _, nd := range matching {
		c.markBusy(nd)
		c.nodes[nd].allocs = append(c.nodes[nd].allocs, Alloc{
			Job: id, Cores: c.cfg.CoresPerNode(), Owner: true,
		})
		c.usedCores += c.cfg.CoresPerNode()
	}
	return matching, nil
}

// PlaceGuest adds the job to an already busy node with the given core
// share. The caller (nodemgr) must have shrunk the residents first so the
// node's core budget is respected.
func (c *Cluster) PlaceGuest(id job.ID, nodeID, cores int) {
	n := &c.nodes[nodeID]
	if n.find(id) >= 0 {
		panic(fmt.Sprintf("cluster: job %d already on node %d", id, nodeID))
	}
	if cores <= 0 {
		panic(fmt.Sprintf("cluster: non-positive guest share %d", cores))
	}
	if len(n.allocs) == 0 {
		// A guest may land on a node whose residents all ended; the node
		// must be re-marked busy.
		c.markBusy(nodeID)
	}
	if n.usedCores()+cores > c.cfg.CoresPerNode() {
		panic(fmt.Sprintf("cluster: node %d over-committed: %d used + %d guest > %d",
			nodeID, n.usedCores(), cores, c.cfg.CoresPerNode()))
	}
	n.allocs = append(n.allocs, Alloc{Job: id, Cores: cores})
	c.usedCores += cores
}

// SetCores changes the share of the job on the node (shrink or expand).
// The job must already be present on the node.
func (c *Cluster) SetCores(nodeID int, id job.ID, cores int) {
	n := &c.nodes[nodeID]
	i := n.find(id)
	if i < 0 {
		panic(fmt.Sprintf("cluster: job %d not on node %d", id, nodeID))
	}
	if cores <= 0 {
		panic(fmt.Sprintf("cluster: non-positive share %d", cores))
	}
	delta := cores - n.allocs[i].Cores
	if n.usedCores()+delta > c.cfg.CoresPerNode() {
		panic(fmt.Sprintf("cluster: node %d over-committed on SetCores", nodeID))
	}
	n.allocs[i].Cores = cores
	c.usedCores += delta
}

// Release removes the job from the node. The node returns to the free
// list once no job remains on it. It reports whether the node became free.
func (c *Cluster) Release(nodeID int, id job.ID) bool {
	n := &c.nodes[nodeID]
	i := n.find(id)
	if i < 0 {
		panic(fmt.Sprintf("cluster: job %d not on node %d", id, nodeID))
	}
	c.usedCores -= n.allocs[i].Cores
	n.allocs[i] = n.allocs[len(n.allocs)-1]
	n.allocs = n.allocs[:len(n.allocs)-1]
	if len(n.allocs) == 0 {
		c.markFree(nodeID)
		return true
	}
	return false
}

// CheckInvariants verifies internal consistency; tests call it after
// random operation sequences. It returns the first violation found.
func (c *Cluster) CheckInvariants() error {
	used := 0
	freeSeen := 0
	for id := range c.nodes {
		n := &c.nodes[id]
		u := n.usedCores()
		if u > c.cfg.CoresPerNode() {
			return fmt.Errorf("node %d over-committed: %d > %d", id, u, c.cfg.CoresPerNode())
		}
		for i := range n.allocs {
			if n.allocs[i].Cores <= 0 {
				return fmt.Errorf("node %d: non-positive alloc for job %d", id, n.allocs[i].Job)
			}
		}
		used += u
		free := len(n.allocs) == 0
		if free != (c.freePos[id] >= 0) {
			return fmt.Errorf("node %d: free-list flag mismatch", id)
		}
		if free {
			freeSeen++
			if c.freeList[c.freePos[id]] != id {
				return fmt.Errorf("node %d: free-list position corrupt", id)
			}
		}
	}
	if used != c.usedCores {
		return fmt.Errorf("used cores %d, cached %d", used, c.usedCores)
	}
	if freeSeen != len(c.freeList) {
		return fmt.Errorf("free nodes %d, free list %d", freeSeen, len(c.freeList))
	}
	return nil
}
