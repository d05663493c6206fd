package roaming

import (
	"fmt"

	"repro/internal/hashchain"
	"repro/internal/netsim"
)

// Subscription is a legitimate client's view of the roaming schedule:
// the server list plus a time-limited roaming key K_t that lets the
// holder derive active sets for every epoch up to and including t
// (Sec. 4). Subscriptions never learn keys past their horizon; an
// expired client must renew.
//
// A subscription only ever holds a key of its issuing pool's chain
// (from Issue, or a Renew that verified against the held key), so the
// set it would derive for an epoch is the pool's: it reads the pool's
// memo instead of walking the chain itself.
type Subscription struct {
	pool     *Pool
	epochLen float64

	key      hashchain.Key
	keyEpoch int

	// ClockOffset models the client's clock error relative to the
	// servers, bounded by δ of the loose-synchronization assumption.
	// Positive offset = client clock runs ahead.
	ClockOffset float64
}

// Issue creates a subscription whose key covers epochs [0, horizon].
// Per the paper, the horizon varies with the client's trust level.
func (p *Pool) Issue(horizon int) (*Subscription, error) {
	key, err := p.chain.Key(horizon)
	if err != nil {
		return nil, fmt.Errorf("roaming: issue: %w", err)
	}
	return &Subscription{
		pool:     p,
		epochLen: p.cfg.EpochLen,
		key:      key,
		keyEpoch: horizon,
	}, nil
}

// Horizon returns the last epoch the subscription can track.
func (s *Subscription) Horizon() int { return s.keyEpoch }

// EpochAt converts a local-clock reading to an epoch index, applying
// the client's clock offset. The schedule is assumed to start at
// simulation time zero, as in the experiments.
func (s *Subscription) EpochAt(now float64) int {
	e := int((now + s.ClockOffset) / s.epochLen)
	if e < 0 {
		return 0
	}
	return e
}

// Expired reports whether the epoch lies beyond the key horizon.
func (s *Subscription) Expired(epoch int) bool { return epoch > s.keyEpoch }

// ActiveServers returns the active set for an epoch the client's key
// covers: what Derive from the held key would give, read from the
// issuing pool's memo. It fails past the horizon. The slice is shared
// with every other reader of the epoch: read-only.
func (s *Subscription) ActiveServers(epoch int) ([]netsim.NodeID, error) {
	if s.Expired(epoch) {
		return nil, fmt.Errorf("roaming: subscription expired (epoch %d > horizon %d)", epoch, s.keyEpoch)
	}
	return s.pool.ActiveSetAt(epoch)
}

// Renew replaces the key with a later-horizon key, verifying it
// against the currently held key so a forged renewal is rejected —
// the client's held key is the trust anchor.
func (s *Subscription) Renew(key hashchain.Key, horizon int) error {
	if horizon < s.keyEpoch {
		return fmt.Errorf("roaming: renewal horizon %d earlier than current %d", horizon, s.keyEpoch)
	}
	if !hashchain.Verify(key, horizon, s.key, s.keyEpoch) {
		return fmt.Errorf("roaming: renewal key failed verification")
	}
	s.key = key
	s.keyEpoch = horizon
	return nil
}

// Resync models the client contacting the subscription service to
// re-synchronize its clock (the paper's recovery path for clients
// inactive longer than the synchronization bound): it simply clears
// the accumulated offset.
func (s *Subscription) Resync() { s.ClockOffset = 0 }
