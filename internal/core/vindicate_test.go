package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/predict"
	"repro/internal/trace"
)

func TestVindicateFigures(t *testing.T) {
	budget := predict.Budget{Nodes: 2_000_000}
	cases := []struct {
		name    string
		tr      *trace.Trace
		verdict core.Verdict
	}{
		{"Figure1b", gen.Figure1b(), core.VerdictRace},
		{"Figure2b", gen.Figure2b(), core.VerdictRace},
		{"Figure3", gen.Figure3(), core.VerdictRace},
		{"Figure4", gen.Figure4(), core.VerdictRace},
		{"Figure5", gen.Figure5(), core.VerdictDeadlock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := core.Vindicate(tc.tr, 0, budget)
			if len(vs) != 1 {
				t.Fatalf("vindications = %d, want 1", len(vs))
			}
			v := vs[0]
			if v.Verdict != tc.verdict {
				t.Fatalf("verdict = %v, want %v", v.Verdict, tc.verdict)
			}
			if err := trace.CheckReordering(tc.tr, v.Witness); err != nil {
				t.Fatalf("witness invalid: %v", err)
			}
			switch v.Verdict {
			case core.VerdictRace:
				if !trace.RevealsRace(tc.tr, v.Witness, v.Pair.First, v.Pair.Second) {
					t.Error("race witness does not reveal the pair")
				}
			case core.VerdictDeadlock:
				if trace.RevealsDeadlock(tc.tr, v.Witness) == nil {
					t.Error("deadlock witness reveals no deadlock")
				}
			}
		})
	}
}

func TestVindicateRaceFree(t *testing.T) {
	if vs := core.Vindicate(gen.Figure1a(), 0, predict.Budget{}); len(vs) != 0 {
		t.Errorf("race-free trace vindicated %d pairs", len(vs))
	}
}

func TestVindicateMaxPairs(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("t1", "x")
	b.Write("t2", "x")
	b.Write("t3", "x")
	tr := b.MustBuild() // 3 event pairs
	vs := core.Vindicate(tr, 2, predict.Budget{})
	if len(vs) != 2 {
		t.Fatalf("vindications = %d, want 2 (capped)", len(vs))
	}
	for _, v := range vs {
		if v.Verdict != core.VerdictRace {
			t.Errorf("pair %v verdict %v, want race", v.Pair, v.Verdict)
		}
	}
}

// TestVindicateCertifiesSigmaFirstPair: of the two pairs racing with the
// last write, Theorem 1 covers the one with the later first event, so a
// cap of one certifies (1, 2), not FindRacePairs' leading (0, 2).
func TestVindicateCertifiesSigmaFirstPair(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("t1", "x") // 0
	b.Write("t1", "x") // 1
	b.Write("t2", "x") // 2: races with 0 and 1
	vs := core.Vindicate(b.MustBuild(), 1, predict.Budget{})
	if len(vs) != 1 || vs[0].Pair != (core.EventPair{First: 1, Second: 2}) {
		t.Fatalf("vindicated %v, want only the σ-first pair (1, 2)", vs)
	}
	if vs[0].Verdict != core.VerdictRace {
		t.Errorf("verdict %v, want race", vs[0].Verdict)
	}
}

func TestVerdictString(t *testing.T) {
	if core.VerdictRace.String() != "race" ||
		core.VerdictDeadlock.String() != "deadlock" ||
		core.VerdictUnconfirmed.String() != "unconfirmed" {
		t.Error("verdict strings wrong")
	}
}
