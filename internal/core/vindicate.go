package core

import (
	"cmp"
	"slices"

	"repro/internal/predict"
	"repro/internal/trace"
)

// Verdict classifies one reported race pair after witness search.
type Verdict int

const (
	// VerdictRace: a correct reordering schedules the two events adjacently
	// — a true predictable race.
	VerdictRace Verdict = iota
	// VerdictDeadlock: no race witness exists, but a correct reordering
	// deadlocks a thread set — the paper's weak-soundness alternative
	// (Figure 5's situation).
	VerdictDeadlock
	// VerdictUnconfirmed: the searches exhausted their budget before
	// finding either witness. The pair may still be real; the paper's
	// guarantee covers the first pair, and in its experiments "subsequent
	// pairs that are in WCP-race also happen to be in race" (§3.2).
	VerdictUnconfirmed
)

func (v Verdict) String() string {
	switch v {
	case VerdictRace:
		return "race"
	case VerdictDeadlock:
		return "deadlock"
	default:
		return "unconfirmed"
	}
}

// Vindication is the outcome of certifying one event-level race pair.
type Vindication struct {
	Pair    EventPair
	Verdict Verdict
	// Witness is the certifying correct reordering for VerdictRace and
	// VerdictDeadlock.
	Witness trace.Reordering
}

// Vindicate runs the two-pass race-pair extraction and then attempts to
// certify each pair with the witness engine, turning the detector's sound
// warnings into explained reports. maxPairs caps how many pairs are
// certified (0 = all); budget bounds each search.
//
// Pairs are certified in σ-order: by second event, and among pairs with
// the same second event, latest first event first. The first pair is then
// the σ-first race Theorem 1 covers — no event between its two events
// races with the second — so it can never come back VerdictUnconfirmed
// given enough budget; later pairs might, since the soundness guarantee
// covers the first race only.
func Vindicate(tr *trace.Trace, maxPairs int, budget predict.Budget) []Vindication {
	pairs := FindRacePairs(tr)
	slices.SortFunc(pairs, func(a, b EventPair) int {
		return cmp.Or(cmp.Compare(a.Second, b.Second), cmp.Compare(b.First, a.First))
	})
	if maxPairs > 0 && len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	out := make([]Vindication, 0, len(pairs))
	for _, p := range pairs {
		v := Vindication{Pair: p, Verdict: VerdictUnconfirmed}
		if wit, ok := predict.FindRaceWitness(tr, p.First, p.Second, budget); ok {
			v.Verdict = VerdictRace
			v.Witness = wit.Reordering
		} else if !wit.Exhausted {
			// The race search was exhaustive and failed: look for the
			// deadlock the soundness theorem promises (for the first pair).
			if dwit, ok := predict.FindDeadlock(tr, budget); ok {
				v.Verdict = VerdictDeadlock
				v.Witness = dwit.Reordering
			}
		}
		out = append(out, v)
	}
	return out
}
