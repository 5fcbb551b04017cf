// Package drom reproduces the DROM (Dynamic Resource Ownership
// Management) interface the paper layers SD-Policy on: a per-node
// registry of processes and their CPU masks, with get/set operations the
// node manager uses to shrink and expand running jobs between
// malleability points.
//
// DROM's measured reconfiguration cost is "negligible" (Section 2.1); the
// registry still exposes a configurable per-operation overhead so its
// effect can be studied, defaulting to zero.
package drom

import (
	"fmt"
	"math/bits"
	"strings"

	"sdpolicy/internal/job"
)

// Mask is a fixed-width CPU set over the cores of one node.
type Mask struct {
	bits []uint64
	n    int
}

// NewMask returns an empty mask over n cores.
func NewMask(n int) Mask {
	if n <= 0 {
		panic(fmt.Sprintf("drom: non-positive mask width %d", n))
	}
	return Mask{bits: make([]uint64, (n+63)/64), n: n}
}

// RangeMask returns a mask over n cores with cores [lo, hi) set.
func RangeMask(n, lo, hi int) Mask {
	m := NewMask(n)
	m.SetRange(lo, hi)
	return m
}

// Width returns the number of cores the mask covers.
func (m Mask) Width() int { return m.n }

// Set marks core c as owned.
func (m Mask) Set(c int) {
	if c < 0 || c >= m.n {
		panic(fmt.Sprintf("drom: core %d out of [0,%d)", c, m.n))
	}
	m.bits[c/64] |= 1 << (c % 64)
}

// SetRange makes the mask exactly cores [lo, hi), in place.
func (m Mask) SetRange(lo, hi int) {
	if lo < 0 || hi > m.n || lo > hi {
		panic(fmt.Sprintf("drom: core range [%d,%d) out of [0,%d)", lo, hi, m.n))
	}
	clear(m.bits)
	for c := lo; c < hi; c++ {
		m.bits[c/64] |= 1 << (c % 64)
	}
}

// Has reports whether core c is owned.
func (m Mask) Has(c int) bool {
	if c < 0 || c >= m.n {
		return false
	}
	return m.bits[c/64]&(1<<(c%64)) != 0
}

// Count returns the number of owned cores.
func (m Mask) Count() int {
	total := 0
	for _, w := range m.bits {
		total += bits.OnesCount64(w)
	}
	return total
}

// Overlaps reports whether the two masks share any core.
func (m Mask) Overlaps(o Mask) bool {
	for i := range m.bits {
		if i < len(o.bits) && m.bits[i]&o.bits[i] != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the mask.
func (m Mask) Clone() Mask {
	c := Mask{bits: make([]uint64, len(m.bits)), n: m.n}
	copy(c.bits, m.bits)
	return c
}

// copyInto copies m into dst, reusing dst's storage when it is wide
// enough, and returns the copy.
func (m Mask) copyInto(dst Mask) Mask {
	if cap(dst.bits) < len(m.bits) {
		dst.bits = make([]uint64, len(m.bits))
	}
	dst.bits = dst.bits[:len(m.bits)]
	copy(dst.bits, m.bits)
	dst.n = m.n
	return dst
}

// String renders the mask as core ranges, e.g. "0-23,32".
func (m Mask) String() string {
	var b strings.Builder
	first := true
	c := 0
	for c < m.n {
		if !m.Has(c) {
			c++
			continue
		}
		start := c
		for c < m.n && m.Has(c) {
			c++
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		if c-1 == start {
			fmt.Fprintf(&b, "%d", start)
		} else {
			fmt.Fprintf(&b, "%d-%d", start, c-1)
		}
	}
	if first {
		return "-"
	}
	return b.String()
}

// Stats counts DROM traffic so experiments can report reconfiguration
// activity (the shrink/expand operations of Section 3.3).
type Stats struct {
	Registered int64 // processes attached to the DROM space
	Cleaned    int64 // processes detached
	MaskSets   int64 // affinity changes on running processes
}

// entry is one registered process: the job and its CPU mask on the node.
type entry struct {
	id   job.ID
	mask Mask
}

// Registry is the DROM space of a whole machine: per node, the set of
// registered processes and their disjoint CPU masks.
//
// Each node's processes live in a slice indexed by node. Cleaned entries
// keep their mask storage beyond the slice's length, and Register and
// SetMask copy the caller's mask into that storage, so a steady-state
// simulation registers and reconfigures without allocating.
type Registry struct {
	coresPerNode int
	overhead     int64 // seconds charged per mask change
	nodes        [][]entry
	stats        Stats
}

// NewRegistry returns an empty registry for nodes of the given width.
// overhead is the simulated cost in seconds of one mask change.
func NewRegistry(coresPerNode int, overhead int64) *Registry {
	if coresPerNode <= 0 {
		panic(fmt.Sprintf("drom: non-positive node width %d", coresPerNode))
	}
	if overhead < 0 {
		panic(fmt.Sprintf("drom: negative overhead %d", overhead))
	}
	return &Registry{coresPerNode: coresPerNode, overhead: overhead}
}

// Overhead returns the per-operation reconfiguration cost in seconds.
func (r *Registry) Overhead() int64 { return r.overhead }

// Stats returns a snapshot of the traffic counters.
func (r *Registry) Stats() Stats { return r.stats }

// procs returns the node's registered processes (nil for a node never
// used).
func (r *Registry) procs(node int) []entry {
	if node < 0 || node >= len(r.nodes) {
		return nil
	}
	return r.nodes[node]
}

// find returns the index of the job's entry on the node, or -1.
func (r *Registry) find(node int, id job.ID) int {
	for i, e := range r.procs(node) {
		if e.id == id {
			return i
		}
	}
	return -1
}

// checkMask validates a mask the job wants to hold on the node: right
// width, non-empty, disjoint from every other process's mask.
func (r *Registry) checkMask(node int, id job.ID, m Mask) error {
	if m.Width() != r.coresPerNode {
		return fmt.Errorf("drom: mask width %d, node width %d", m.Width(), r.coresPerNode)
	}
	if m.Count() == 0 {
		return fmt.Errorf("drom: empty mask for job %d on node %d", id, node)
	}
	for _, e := range r.procs(node) {
		if e.id != id && m.Overlaps(e.mask) {
			return fmt.Errorf("drom: job %d mask %s overlaps job %d mask %s on node %d",
				id, m, e.id, e.mask, node)
		}
	}
	return nil
}

// Register attaches a process of the job to the node with the given mask.
// Masks of processes sharing a node must be disjoint. The registry keeps
// a copy of m.
func (r *Registry) Register(node int, id job.ID, m Mask) error {
	if node < 0 {
		return fmt.Errorf("drom: negative node %d", node)
	}
	if r.find(node, id) >= 0 {
		return fmt.Errorf("drom: job %d already registered on node %d", id, node)
	}
	if err := r.checkMask(node, id, m); err != nil {
		return err
	}
	if node >= len(r.nodes) {
		r.nodes = append(r.nodes, make([][]entry, node+1-len(r.nodes))...)
	}
	procs := r.nodes[node]
	n := len(procs)
	if n < cap(procs) {
		procs = procs[:n+1] // reuse a cleaned entry's mask storage
	} else {
		procs = append(procs, entry{})
	}
	procs[n] = entry{id: id, mask: m.copyInto(procs[n].mask)}
	r.nodes[node] = procs
	r.stats.Registered++
	return nil
}

// Procs returns the jobs registered on the node, unordered.
func (r *Registry) Procs(node int) []job.ID {
	procs := r.procs(node)
	out := make([]job.ID, 0, len(procs))
	for _, e := range procs {
		out = append(out, e.id)
	}
	return out
}

// GetMask returns a copy of the current mask of the job on the node.
func (r *Registry) GetMask(node int, id job.ID) (Mask, bool) {
	i := r.find(node, id)
	if i < 0 {
		return Mask{}, false
	}
	return r.nodes[node][i].mask.Clone(), true
}

// SetMask changes the affinity of a registered process — the shrink or
// expand operation applied at the job's next malleability point. The
// registry keeps a copy of m. It returns the simulated overhead to
// charge.
func (r *Registry) SetMask(node int, id job.ID, m Mask) (int64, error) {
	i := r.find(node, id)
	if i < 0 {
		return 0, fmt.Errorf("drom: job %d not registered on node %d", id, node)
	}
	if err := r.checkMask(node, id, m); err != nil {
		return 0, err
	}
	e := &r.nodes[node][i]
	e.mask = m.copyInto(e.mask)
	r.stats.MaskSets++
	return r.overhead, nil
}

// Clean detaches the job's process from the node (end of job step).
func (r *Registry) Clean(node int, id job.ID) error {
	i := r.find(node, id)
	if i < 0 {
		return fmt.Errorf("drom: job %d not registered on node %d", id, node)
	}
	procs := r.nodes[node]
	last := len(procs) - 1
	// Swap rather than overwrite, so the cleaned entry's mask storage
	// stays in the slice's spare capacity for the next Register.
	procs[i], procs[last] = procs[last], procs[i]
	r.nodes[node] = procs[:last]
	r.stats.Cleaned++
	return nil
}

// CheckInvariants verifies that every node's masks are pairwise disjoint
// and non-empty, that no job is registered twice on a node, and that the
// registered processes number Registered - Cleaned. Tests call it after
// random operation sequences, and every simulation run calls it at the
// end.
func (r *Registry) CheckInvariants() error {
	live := int64(0)
	for node, procs := range r.nodes {
		live += int64(len(procs))
		for i, a := range procs {
			if a.mask.Count() == 0 {
				return fmt.Errorf("node %d: empty mask for job %d", node, a.id)
			}
			for _, b := range procs[i+1:] {
				if a.id == b.id {
					return fmt.Errorf("node %d: job %d registered twice", node, a.id)
				}
				if a.mask.Overlaps(b.mask) {
					return fmt.Errorf("node %d: jobs %d and %d overlap", node, a.id, b.id)
				}
			}
		}
	}
	if want := r.stats.Registered - r.stats.Cleaned; live != want {
		return fmt.Errorf("%d processes registered, counters say %d", live, want)
	}
	return nil
}
