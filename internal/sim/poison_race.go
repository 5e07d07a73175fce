//go:build race

package sim

import (
	"math"

	"daspos/internal/detector"
)

// poisoned is the channel every reading of a released event carries in
// race-detector builds: all address bits set, a layer, azimuth and z cell
// no detector has.
const poisoned = ^detector.ChannelID(0)

// poison overwrites a released event before it goes back to the pool: its
// number becomes -1 and every reading sits on the poisoned channel at a NaN
// position or energy. A stage that reads a simulated event after
// rawdata.DigitizeFunc has released it then triggers on or digitises
// readings no detector makes, so the tier digests and the streaming tests
// fail under go test -race instead of passing by the luck of the pool's
// timing.
func poison(e *Event) {
	e.Number = -1
	nan := math.NaN()
	for i := range e.TrackerHits {
		e.TrackerHits[i] = Hit{Channel: poisoned, Phi: nan, Z: nan}
	}
	for i := range e.MuonHits {
		e.MuonHits[i] = Hit{Channel: poisoned, Phi: nan, Z: nan}
	}
	for i := range e.Deposits {
		e.Deposits[i] = CaloDeposit{Channel: poisoned, Energy: nan}
	}
}
