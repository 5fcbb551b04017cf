package sdpolicy

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"sdpolicy/internal/reducer"
)

// smallExperimentParams are parameters that keep every registry
// experiment to a fraction of a second: a small scale, and the sample
// trace for real_trace.
func smallExperimentParams(t *testing.T, d *ExperimentDescriptor) reducer.Params {
	t.Helper()
	params := reducer.Params{}
	for _, ps := range d.Params {
		switch ps.Name {
		case "scale":
			params["scale"] = 0.03
		case "trace":
			info, err := RegisterTraceFile("testdata/sample.swf")
			if err != nil {
				t.Fatal(err)
			}
			params["trace"] = info.Ref
		}
	}
	return params
}

// TestRegistrySummaryRoundTrip checks the summary type each descriptor
// declares: the JSON of a local summary — the bytes a /v1/experiments
// done frame carries — decodes through DecodeSummary into a value of
// the local summary's type that re-marshals to the same bytes.
func TestRegistrySummaryRoundTrip(t *testing.T) {
	for _, d := range Experiments().List() {
		t.Run(d.Name, func(t *testing.T) {
			local, err := testEngine.Experiment(context.Background(), d.Name, smallExperimentParams(t, d))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(local)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := d.DecodeSummary(want)
			if err != nil {
				t.Fatal(err)
			}
			if got, wantType := reflect.TypeOf(decoded), reflect.TypeOf(local); got != wantType {
				t.Fatalf("decoded a %v, the local summary is a %v", got, wantType)
			}
			got, err := json.Marshal(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("round trip changed the summary:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRunExperimentTypeMismatch: asking for the wrong summary type, or
// an experiment that does not exist, is an error, not a panic.
func TestRunExperimentTypeMismatch(t *testing.T) {
	ctx := context.Background()
	params := reducer.Params{"scale": 0.03}
	if _, err := RunExperiment[[]SweepRow](ctx, testEngine, "table2", params); err == nil {
		t.Fatal("table2 summary returned as []SweepRow")
	}
	rows, err := RunExperiment[[]Table2Row](ctx, testEngine, "table2", params)
	if err != nil || len(rows) != 5 {
		t.Fatalf("table2: %d rows, err %v", len(rows), err)
	}
	if _, err := RunExperiment[[]Table2Row](ctx, testEngine, "no_such_experiment", nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("unknown experiment: err %v, want ErrBadInput", err)
	}
}
