package sdpolicy

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sdpolicy/internal/workload"
)

// TraceInfo describes one registered SWF trace: its content digest,
// the "trace:<digest>" ref it is addressable under, and the compiled
// stream's shape.
type TraceInfo = workload.TraceInfo

// TraceRef is the "trace:" name prefix marking trace-backed workloads.
const TraceRef = workload.TracePrefix

// IsTraceRef reports whether name addresses a registered trace
// ("trace:<digest>") rather than a generator preset.
func IsTraceRef(name string) bool { return workload.IsTraceRef(name) }

// DerivationOpSpec describes one derivation op for API listings: its
// wire name and typed fields with ranges.
type DerivationOpSpec = workload.DerivationOpSpec

// DerivationField is one parameter of a DerivationOpSpec.
type DerivationField = workload.DerivationField

// DerivationOps returns the full derivation-op schema served by
// GET /v1/workloads.
func DerivationOps() []DerivationOpSpec { return workload.DerivationOps() }

// RegisterTrace compiles SWF bytes into an immutable workload Spec and
// registers it in the process-wide trace registry under its content
// digest; the returned info carries the "trace:<digest>" ref usable
// anywhere a preset name is (NewWorkload, Points, the HTTP wire
// forms). Machine geometry comes from the trace's header comments
// (MaxNodes/MaxProcs/CoresPerNode); traces declaring neither get one
// single-core node per processor. Registration is idempotent by
// content. source is a display label (typically the file path).
func RegisterTrace(data []byte, source string) (TraceInfo, error) {
	info, err := workload.Traces.Register(data, workload.TraceConfig{}, source)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("%w: %w", err, ErrBadInput)
	}
	return info, nil
}

// RegisterTraceFile reads and registers one SWF file.
func RegisterTraceFile(path string) (TraceInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return TraceInfo{}, err
	}
	info, err := RegisterTrace(data, path)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	return info, nil
}

// RegisterTraceDir registers every *.swf file directly under dir, in
// sorted order, returning the info records in registration order.
func RegisterTraceDir(dir string) ([]TraceInfo, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.swf"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	infos := make([]TraceInfo, 0, len(paths))
	for _, p := range paths {
		info, err := RegisterTraceFile(p)
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// RegisteredTraces lists every registered trace sorted by digest.
func RegisteredTraces() []TraceInfo { return workload.Traces.List() }

// TraceByRef returns the info record for a "trace:<digest>" ref.
func TraceByRef(ref string) (TraceInfo, bool) {
	if !IsTraceRef(ref) {
		return TraceInfo{}, false
	}
	return workload.Traces.Info(strings.TrimPrefix(ref, TraceRef))
}

// WorkloadNames lists the generator preset ids in Table 1 order.
func WorkloadNames() []string { return workload.Names() }

// WorkloadRef is the unified workload address of the HTTP wire forms:
// exactly one of Name (a generator preset) or Trace (a registered
// trace, with or without the "trace:" prefix), plus the generation
// parameters and the derivation chain. It is the one shape accepted by
// /v1/simulate and campaign PointSpecs, superseding the loose
// workload/scale/seed fields.
type WorkloadRef struct {
	Name        string       `json:"name,omitempty"`
	Trace       string       `json:"trace,omitempty"`
	Scale       float64      `json:"scale,omitempty"`
	Seed        uint64       `json:"seed,omitempty"`
	Derivations []Derivation `json:"derivations,omitempty"`
}

// Validate rejects structurally invalid refs with ErrBadInput: both or
// neither of name/trace set, or invalid derivations. Unknown names and
// digests are rejected later, at resolution time.
func (r WorkloadRef) Validate() error {
	switch {
	case r.Name == "" && r.Trace == "":
		return fmt.Errorf("sdpolicy: workload ref needs name or trace: %w", ErrBadInput)
	case r.Name != "" && r.Trace != "":
		return fmt.Errorf("sdpolicy: workload ref sets both name %q and trace %q: %w", r.Name, r.Trace, ErrBadInput)
	case r.Name != "" && IsTraceRef(r.Name):
		return fmt.Errorf("sdpolicy: trace ref %q belongs in the trace field: %w", r.Name, ErrBadInput)
	}
	for i, d := range r.Derivations {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("sdpolicy: derivation %d: %w: %w", i, err, ErrBadInput)
		}
	}
	return nil
}

// WorkloadName collapses the ref's address into the single workload
// name used by Points and the generation cache: the preset name, or
// "trace:<digest>" (the prefix is added if the caller omitted it).
func (r WorkloadRef) WorkloadName() string {
	if r.Trace != "" {
		return TraceRef + strings.TrimPrefix(r.Trace, TraceRef)
	}
	return r.Name
}

// PointSpec returns the wire-form campaign point this ref describes
// under the given options.
func (r WorkloadRef) PointSpec(opt Options) PointSpec {
	return PointSpec{
		Workload:    r.WorkloadName(),
		Scale:       r.Scale,
		Seed:        r.Seed,
		Derivations: r.Derivations,
		Options:     opt,
	}
}
