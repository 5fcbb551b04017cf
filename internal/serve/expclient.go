package serve

import (
	"context"
	"encoding/json"
	"net/http"
)

// RunRemoteExperiment creates the named experiment (params marshals as
// the request's params object; nil means all defaults) as a
// /v1/experiments resource on one of the equivalent server bases (see
// runDurable) and streams its reduced view, calling onRow (when
// non-nil) for each incremental row in stream order and returning the
// terminal summary's raw JSON — byte-identical to json.Marshal of the
// local Engine.Experiment summary, which is what lets sdexp decode it
// through the experiment's descriptor and render remote runs through
// the same code as local ones. The ?from= cursor delivers every row
// exactly once across reattaches.
func RunRemoteExperiment(ctx context.Context, client *http.Client, bases []string, experiment string, params any, onRow func(row json.RawMessage)) (json.RawMessage, error) {
	done, err := runDurable(ctx, client, bases, "experiments", struct {
		Experiment string `json:"experiment"`
		Params     any    `json:"params,omitempty"`
	}{Experiment: experiment, Params: params}, func(_ string, f *streamFrame) error {
		if len(f.Row) > 0 && onRow != nil {
			onRow(f.Row)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return done.Summary, nil
}
