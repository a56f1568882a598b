package resilience

import (
	"slices"
	"sync"

	"vsfabric/internal/client"
)

// MaxIdlePerHost bounds the sessions kept idle for one host; a session given
// back beyond it is closed. It covers the partition reads one host serves at
// once on an executor set of up to 16 cores over 2 hosts, and stays far under
// a node's session limit (vertica.Config.MaxClientSessions, 100 by default),
// which idle sessions count against.
const MaxIdlePerHost = 8

// IdleSessions is a set of open sessions no one is using, filed by the host
// each is on, for a ResilientConnector to hand out instead of dialing
// (ResilientConnector.SetIdle). A session is handed out only while alive:
// one whose host would now refuse a dial is closed instead. Safe for concurrent use; the zero value is not usable — a nil
// *IdleSessions is an empty set that keeps nothing.
type IdleSessions struct {
	mu     sync.Mutex
	hosts  map[string][]client.Conn
	closed bool
}

// NewIdleSessions returns an empty set.
func NewIdleSessions() *IdleSessions {
	return &IdleSessions{hosts: make(map[string][]client.Conn)}
}

// liveness is implemented by a session that can tell, without a round trip,
// whether it would still serve a statement where a fresh dial to its host
// would not be refused (server.TCPConn, the in-process client's sessions).
type liveness interface {
	Alive() bool
}

// alive reports whether c may be handed out again. A session that cannot
// tell is taken to be alive; a dead one then fails its next statement, which
// the statement path retries.
func alive(c client.Conn) bool {
	l, ok := c.(liveness)
	return !ok || l.Alive()
}

// take returns an alive session filed under host, most recently filed first,
// closing every dead one it passes; nil when there is none.
func (s *IdleSessions) take(host string) client.Conn {
	if s == nil {
		return nil
	}
	for {
		s.mu.Lock()
		list := s.hosts[host]
		if len(list) == 0 {
			s.mu.Unlock()
			return nil
		}
		c := list[len(list)-1]
		list[len(list)-1] = nil
		s.hosts[host] = list[:len(list)-1]
		s.mu.Unlock()
		if alive(c) {
			return c
		}
		c.Close()
	}
}

// put files c under host, or closes it when the set is closed or host
// already holds MaxIdlePerHost sessions.
func (s *IdleSessions) put(host string, c client.Conn) {
	s.mu.Lock()
	keep := !s.closed && len(s.hosts[host]) < MaxIdlePerHost
	if keep {
		s.hosts[host] = append(s.hosts[host], c)
	}
	s.mu.Unlock()
	if !keep {
		c.Close()
	}
}

// retain closes the idle sessions to every host not in hosts.
func (s *IdleSessions) retain(hosts []string) {
	if s == nil {
		return
	}
	var gone []client.Conn
	s.mu.Lock()
	for h, list := range s.hosts {
		if !slices.Contains(hosts, h) {
			gone = append(gone, list...)
			delete(s.hosts, h)
		}
	}
	s.mu.Unlock()
	for _, c := range gone {
		c.Close()
	}
}

// Close closes every idle session; a session given back later is closed
// too.
func (s *IdleSessions) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.retain(nil)
}

// Idle reports how many sessions are filed under host (for tests and
// observability).
func (s *IdleSessions) Idle(host string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hosts[host])
}
