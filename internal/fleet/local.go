package fleet

import (
	"errors"
	"sync/atomic"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

// LocalShard is an in-process shard: a full broker holding its partition
// as local entries, with one link (link 0) playing the coordinator. The
// broker's covering forest decides what that link advertises, which is
// exactly what the coordinator's scatter index needs.
type LocalShard struct {
	name string
	b    *broker.Broker
	link broker.LinkID
	dead atomic.Bool
}

// errShardDown is what a killed shard answers everything with.
var errShardDown = errors.New("fleet: shard down")

// NewLocalShard builds an in-process shard. cfg.ID is overridden by name;
// everything else (dimension, match layout, covering) passes through.
func NewLocalShard(name string, cfg broker.Config) (*LocalShard, error) {
	cfg.ID = name
	b, err := broker.New(cfg)
	if err != nil {
		return nil, err
	}
	return &LocalShard{name: name, b: b, link: b.AddLink()}, nil
}

// Name identifies the shard on the ring.
func (s *LocalShard) Name() string { return s.name }

// Broker exposes the underlying broker (stats, pruning).
func (s *LocalShard) Broker() *broker.Broker { return s.b }

// Subscribe places one subscription as a local, exact entry and returns
// the advertisement frames the shard's covering plane emits on the
// coordinator link.
func (s *LocalShard) Subscribe(sub *subscription.Subscription) ([]wire.Frame, error) {
	if s.dead.Load() {
		return nil, errShardDown
	}
	out, err := s.b.SubscribeLocal(sub)
	if err != nil {
		return nil, err
	}
	return collectFrames(out), nil
}

// Unsubscribe retracts one subscription; the returned frames carry the
// retraction and any re-advertisements of formerly covered entries.
func (s *LocalShard) Unsubscribe(id uint64) ([]wire.Frame, error) {
	if s.dead.Load() {
		return nil, errShardDown
	}
	out, err := s.b.UnsubscribeLocal(id)
	if err != nil {
		return nil, err
	}
	return collectFrames(out), nil
}

// Publish matches one event against the partition and returns the matched
// subscription IDs. All entries are local, so the broker's deliveries are
// exact — never pruned, never false.
func (s *LocalShard) Publish(m *event.Message) ([]uint64, error) {
	if s.dead.Load() {
		return nil, errShardDown
	}
	var ids []uint64
	err := s.b.HandlePublishBorrow(s.link, m, func(out []broker.Outgoing, dels []broker.Delivery) {
		releaseFrames(out)
		if len(dels) > 0 {
			ids = make([]uint64, len(dels))
			for i, d := range dels {
				ids[i] = d.SubID
			}
		}
	})
	return ids, err
}

// Sync replays the shard's full advertisement state (covers only when the
// covering plane is on) — the reattach path of AddShard.
func (s *LocalShard) Sync() ([]wire.Frame, error) {
	if s.dead.Load() {
		return nil, errShardDown
	}
	out, err := s.b.SyncFrames(s.link)
	if err != nil {
		return nil, err
	}
	return collectFrames(out), nil
}

// Close marks the shard down. Kill is the chaos alias: a killed shard
// answers every call with an error, which is how the coordinator's publish
// path discovers the death.
func (s *LocalShard) Close() error {
	s.dead.Store(true)
	return nil
}

// Kill abruptly fails the shard (chaos hook): identical to Close, named
// for the fault it models.
func (s *LocalShard) Kill() { s.dead.Store(true) }

// collectFrames strips the transport envelope off broker output: the
// frames are consumed here (applied to the scatter index, or re-encoded by
// a remote serve loop), so each Outgoing's shared-encoding reference is
// released.
func collectFrames(out []broker.Outgoing) []wire.Frame {
	if len(out) == 0 {
		return nil
	}
	frames := make([]wire.Frame, len(out))
	for i := range out {
		frames[i] = out[i].Frame
		out[i].ReleaseEnc()
	}
	return frames
}

// releaseFrames drops the shared-encoding references of broker output that
// goes nowhere (a shard has no neighbor links to forward publishes to, but
// the refbalance discipline holds regardless).
func releaseFrames(out []broker.Outgoing) {
	for i := range out {
		out[i].ReleaseEnc()
	}
}
