package sdpolicy

import (
	"encoding/json"
	"math"
)

// The summary and row types of the registry experiments
// (experiments_registry.go). Run one with RunExperiment, naming the
// experiment and the summary type its descriptor declares.

// Variant is one labelled scheduler configuration of an experiment sweep.
type Variant struct {
	Label   string
	Options Options
}

// MaxSDVariants returns the Figures 1-3 configurations: MAXSD 5, 10, 50,
// infinite, and the dynamic feedback cut-off DynAVGSD. All use
// SharingFactor 0.5 and the ideal runtime model, as in Section 4.1.
func MaxSDVariants() []Variant {
	return []Variant{
		{"MAXSD 5", Options{Policy: "sd", MaxSlowdown: 5}},
		{"MAXSD 10", Options{Policy: "sd", MaxSlowdown: 10}},
		{"MAXSD 50", Options{Policy: "sd", MaxSlowdown: 50}},
		{"MAXSD inf", Options{Policy: "sd"}},
		{"DynAVGSD", Options{Policy: "sd", DynamicCutoff: "avg"}},
	}
}

// SweepRow is one (workload, variant) row of the sweep_maxsd
// experiment (Figures 1-3), normalised
// to the static backfill baseline of the same workload: 1.0 means equal,
// below 1.0 means the SD configuration improved the metric.
type SweepRow struct {
	Workload        string  `json:"workload"`
	Variant         string  `json:"variant"`
	Makespan        float64 `json:"makespan"`
	AvgResponse     float64 `json:"avg_response"`
	AvgSlowdown     float64 `json:"avg_slowdown"`
	MalleableStarts int     `json:"malleable_starts"`
}

// ModelRow is one runtime_models row (Figure 8): an SD-Policy DynAVGSD run under one
// runtime model, normalised to the static baseline under the same model.
type ModelRow struct {
	Workload    string
	Model       string
	Makespan    float64
	AvgResponse float64
	AvgSlowdown float64
}

// HeatCells is a heatmap cell grid that survives JSON round-trips:
// empty buckets are NaN in memory (the HeatmapRatio convention, which
// encoding/json refuses to marshal) and null on the wire.
type HeatCells [][]float64

func (h HeatCells) MarshalJSON() ([]byte, error) {
	rows := make([][]*float64, len(h))
	for i, row := range h {
		rows[i] = make([]*float64, len(row))
		for j := range row {
			if !math.IsNaN(row[j]) {
				v := row[j]
				rows[i][j] = &v
			}
		}
	}
	return json.Marshal(rows)
}

func (h *HeatCells) UnmarshalJSON(data []byte) error {
	var rows [][]*float64
	if err := json.Unmarshal(data, &rows); err != nil {
		return err
	}
	out := make(HeatCells, len(rows))
	for i, row := range rows {
		out[i] = make([]float64, len(row))
		for j, v := range row {
			if v == nil {
				out[i][j] = math.NaN()
			} else {
				out[i][j] = *v
			}
		}
	}
	*h = out
	return nil
}

// BigAnalysis is the big_workload summary, the Section 4.2 study of the
// large workload (Figures 4-7): static vs SD-Policy MAXSD 10 on the Curie-like trace, with
// category heatmaps and per-day series.
type BigAnalysis struct {
	Static *Result
	SD     *Result
	// Ratios are static/SD means per (node bucket × runtime bucket):
	// above 1.0 means SD improved that category (Figures 4-6).
	SlowdownRatio HeatCells
	RunTimeRatio  HeatCells
	WaitRatio     HeatCells
	// Daily series of both runs (Figure 7).
	StaticDaily []DayPoint
	SDDaily     []DayPoint
}

// RealRunReport is the real_run summary, the Figure 9 comparison on the
// application workload, and the real_trace summary on a trace scenario:
// improvement percentages of SD-Policy over static backfill.
type RealRunReport struct {
	Static *Result
	SD     *Result
	// Improvements in percent (positive = SD better), Figure 9's bars.
	MakespanPct    float64
	AvgResponsePct float64
	AvgSlowdownPct float64
	EnergyPct      float64
}

// Table1Row is one table1 row: a workload inventory line of Table 1,
// with the static-backfill aggregates measured by simulation.
type Table1Row struct {
	ID          string
	Name        string
	Jobs        int
	Nodes       int
	Cores       int
	MaxJobNodes int
	AvgResponse float64
	AvgSlowdown float64
	Makespan    int64
}

// Table2Row is one table2 row, an application line of Table 2.
type Table2Row struct {
	App      string
	SharePct float64
}

// AblationRow is one row of a design-choice sweep: the ablate_*
// experiments and compare_policies.
type AblationRow struct {
	Parameter   string
	Value       string
	AvgSlowdown float64 // normalised to static backfill
	AvgResponse float64
	Makespan    float64
}

func ablation(param, value string, res, base *Result) AblationRow {
	return AblationRow{
		Parameter:   param,
		Value:       value,
		AvgSlowdown: ratio(res.AvgSlowdown, base.AvgSlowdown),
		AvgResponse: ratio(res.AvgResponse, base.AvgResponse),
		Makespan:    ratio(float64(res.Makespan), float64(base.Makespan)),
	}
}

func ratio(v, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return v / base
}

// improvement returns the percentage reduction of v relative to base.
func improvement(base, v float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * (base - v) / base
}
