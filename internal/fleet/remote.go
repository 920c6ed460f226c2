package fleet

import (
	"fmt"
	"net"
	"sync"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/transport"
	"dimprune/internal/wire"
)

// Remote shards put a fleet partition in its own OS process: a ShardServer
// answers a coordinator connection with a LocalShard over the shard-side
// broker; a RemoteShard is the coordinator-side stub implementing Shard
// over that connection.
//
// The protocol is strict request/reply over one FIFO connection, so no
// correlation IDs are needed beyond the event ID the match-set frame
// already carries. Every request is answered by zero or more advertisement
// frames (subscribe/unsubscribe of cover roots) terminated by exactly one
// match-set frame:
//
//	hello                 -> sync advertisements, match-set terminator
//	subscribe (sub)       -> advertisement delta,  match-set terminator
//	unsubscribe (id)      -> advertisement delta,  match-set terminator
//	publish (event)       -> match-set carrying the matched sub IDs
//
// A publish's match set echoes the event ID; control terminators echo the
// subscription ID (zero for hello).

// ShardServer serves one broker as a fleet shard: each coordinator request
// is answered by the in-process LocalShard built on that broker, so a
// remote shard runs exactly the code of a local one.
type ShardServer struct {
	shard *LocalShard
	logf  func(string, ...any)
}

// NewShardServer wraps a broker for fleet shard duty. The coordinator link
// is allocated here, so advertisement frames and publishes flow through
// the same broker link whichever coordinator connection is attached.
func NewShardServer(b *broker.Broker) *ShardServer {
	return &ShardServer{
		shard: &LocalShard{name: b.ID(), b: b, link: b.AddLink()},
		logf:  func(string, ...any) {},
	}
}

// SetLogf installs a diagnostics logger.
func (s *ShardServer) SetLogf(logf func(string, ...any)) {
	if logf != nil {
		s.logf = logf
	}
}

// Serve accepts coordinator connections until the listener closes.
// Connections are served one at a time — a fleet shard has one
// coordinator; a reconnecting coordinator resyncs with a hello.
func (s *ShardServer) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		s.logf("fleet shard: coordinator attached from %s", nc.RemoteAddr())
		s.ServeConn(transport.NewTCPConn(nc))
		s.logf("fleet shard: coordinator detached")
	}
}

// ServeConn answers one coordinator connection until it closes. A request
// the shard fails is logged and still terminated, which keeps the reply
// stream aligned; so is an unknown frame, tolerated the way the transport
// server tolerates one.
func (s *ShardServer) ServeConn(conn transport.Conn) {
	defer func() { _ = conn.Close() }()
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		var (
			out []wire.Frame
			ids []uint64
			id  uint64 // echoed by the terminator
		)
		switch f.Type {
		case wire.FrameHello:
			out, err = s.shard.Sync()
		case wire.FrameSubscribe:
			id = f.Sub.ID
			out, err = s.shard.Subscribe(f.Sub)
		case wire.FrameUnsubscribe:
			id = f.SubID
			out, err = s.shard.Unsubscribe(f.SubID)
		case wire.FramePublish:
			id = f.Msg.ID
			ids, err = s.shard.Publish(f.Msg)
		}
		if err != nil {
			s.logf("fleet shard: %s %d: %v", f.Type, id, err)
		}
		if !s.reply(conn, out, wire.MatchSetFrame(id, ids)) {
			return
		}
	}
}

// reply sends a batch's advertisement frames and its terminator; false
// means the connection broke.
func (s *ShardServer) reply(conn transport.Conn, out []wire.Frame, term wire.Frame) bool {
	for _, f := range out {
		if err := conn.Send(f); err != nil {
			return false
		}
	}
	return conn.Send(term) == nil
}

// RemoteShard is the coordinator-side stub of an OS-process shard. All
// calls round-trip on one FIFO connection under a mutex; a transport
// error marks the shard dead, which the coordinator turns into retraction
// and redistribution.
type RemoteShard struct {
	name string
	mu   sync.Mutex
	conn transport.Conn
	dead bool
}

// DialShard connects to a shard's listener.
func DialShard(name, addr string) (*RemoteShard, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: dial shard %q: %w", name, err)
	}
	return &RemoteShard{name: name, conn: conn}, nil
}

// Name identifies the shard on the ring.
func (r *RemoteShard) Name() string { return r.name }

// Subscribe places one subscription on the remote shard.
func (r *RemoteShard) Subscribe(sub *subscription.Subscription) ([]wire.Frame, error) {
	frames, _, err := r.roundTrip(wire.SubscribeFrame(sub))
	return frames, err
}

// Unsubscribe retracts one subscription on the remote shard.
func (r *RemoteShard) Unsubscribe(id uint64) ([]wire.Frame, error) {
	frames, _, err := r.roundTrip(wire.UnsubscribeFrame(id))
	return frames, err
}

// Publish matches one event on the remote shard.
func (r *RemoteShard) Publish(m *event.Message) ([]uint64, error) {
	_, ids, err := r.roundTrip(wire.PublishFrame(m))
	return ids, err
}

// Sync requests the shard's full advertisement replay.
func (r *RemoteShard) Sync() ([]wire.Frame, error) {
	frames, _, err := r.roundTrip(wire.HelloFrame("fleet-sync"))
	return frames, err
}

// Close tears the connection down; the shard process keeps running and a
// new DialShard can reattach.
func (r *RemoteShard) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dead = true
	return r.conn.Close()
}

// roundTrip sends one request and reads its reply batch: advertisement
// frames up to the match-set terminator.
func (r *RemoteShard) roundTrip(req wire.Frame) ([]wire.Frame, []uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return nil, nil, errShardDown
	}
	if err := r.conn.Send(req); err != nil {
		r.dead = true
		return nil, nil, err
	}
	var frames []wire.Frame
	for {
		f, err := r.conn.Recv()
		if err != nil {
			r.dead = true
			return nil, nil, err
		}
		switch f.Type {
		case wire.FrameMatchSet:
			return frames, f.Matches, nil
		case wire.FrameSubscribe, wire.FrameUnsubscribe:
			frames = append(frames, f)
		}
	}
}
