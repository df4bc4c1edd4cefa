package main

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/engine"
)

// checkCounts compares one analysis with its input's reference: the event
// count must be the trace length and each engine's distinct race count the
// generator's (Table 1 columns 6–7, or the seeded race sites).
func checkCounts(in *input, events int, distinct map[string]int) error {
	if events != in.events {
		return fmt.Errorf("%s: analysed %d events, the trace has %d", in.name, events, in.events)
	}
	for _, want := range []struct {
		engine string
		n      int
	}{{"wcp", in.wantWCP}, {"hb", in.wantHB}} {
		if want.n < 0 {
			continue
		}
		got, ok := distinct[want.engine]
		if !ok {
			return fmt.Errorf("%s: no %s result", in.name, want.engine)
		}
		if got != want.n {
			return fmt.Errorf("%s: %s found %d distinct races, the reference says %d", in.name, want.engine, got, want.n)
		}
	}
	return nil
}

// distinctOf maps engine name to distinct race pairs.
func distinctOf(results []*engine.Result) map[string]int {
	out := make(map[string]int, len(results))
	for _, r := range results {
		out[r.Engine] = r.Distinct()
	}
	return out
}

// checkFinish checks a served session's finish reply.
func checkFinish(in *input, fin *client.FinishResult) error {
	distinct := make(map[string]int, len(fin.Results))
	for _, r := range fin.Results {
		if r.Error != "" {
			return fmt.Errorf("%s: engine %s failed: %s", in.name, r.Engine, r.Error)
		}
		distinct[r.Engine] = r.Distinct
	}
	return checkCounts(in, int(fin.Events), distinct)
}
