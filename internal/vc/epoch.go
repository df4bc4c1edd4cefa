package vc

import "fmt"

// Epoch is a FastTrack-style scalar timestamp c@t packed into one word: the
// clock of a single thread. Both detectors' per-variable and per-location
// access times (race.Cell) are an epoch while their accesses stay totally
// ordered, falling back to a vector clock only while they are not; the
// paper lists epoch optimizations as future work for WCP (§6).
type Epoch uint64

// NoEpoch is the epoch representing "no access yet": clock 0 of thread 0,
// which is ⊑ every time.
const NoEpoch Epoch = 0

// MakeEpoch packs clock c of thread t into an epoch.
func MakeEpoch(t int, c Clock) Epoch {
	return Epoch(uint64(uint32(t))<<32 | uint64(uint32(c)))
}

// TID returns the thread component of the epoch.
func (e Epoch) TID() int { return int(uint32(e >> 32)) }

// Clock returns the clock component of the epoch.
func (e Epoch) Clock() Clock { return Clock(uint32(e)) }

// LeqVC reports whether the epoch's time is ⊑ v, i.e. c ≤ v[t].
func (e Epoch) LeqVC(v VC) bool { return e.Clock() <= v.Get(e.TID()) }

// String renders the epoch as "c@t" (FastTrack notation).
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.Clock(), e.TID()) }
