// Package vertica implements the MPP analytic database substrate the
// connector talks to: a multi-node cluster with hash-segmented columnar
// tables (ROS container storage), MVCC epochs, ACID transactions with table
// locks, a SQL executor with locality-aware hash-range scans, a COPY bulk
// loader, system catalog tables, a UDx registry, and an internal DFS for
// deployed models — the mechanisms §2.1.1 and §3 of the paper build on.
package vertica

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vsfabric/internal/catalog"
	"vsfabric/internal/dc"
	"vsfabric/internal/dfs"
	"vsfabric/internal/expr"
	"vsfabric/internal/obs"
	"vsfabric/internal/pool"
	"vsfabric/internal/sim"
	"vsfabric/internal/txn"
	"vsfabric/internal/types"
	"vsfabric/internal/wal"
)

// UDxFunc is a registered scalar User-Defined Extension: it receives the
// evaluated arguments and the USING PARAMETERS map.
type UDxFunc func(args []types.Value, params map[string]string) (types.Value, error)

// NodeState is a node's position in the cluster lifecycle.
type NodeState int32

const (
	// NodeUp serves reads and receives writes.
	NodeUp NodeState = iota
	// NodeDown is failed: reads fail over to buddies, writes skip its stores
	// (they land on buddies and are reconciled at recovery).
	NodeDown
	// NodeRecovering is replaying missed epochs from its buddies: it receives
	// new writes but does not serve reads until caught up.
	NodeRecovering
	// NodeRemoved has been dropped from the cluster by ALTER CLUSTER REMOVE
	// NODE; it never returns.
	NodeRemoved
)

func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "UP"
	case NodeDown:
		return "DOWN"
	case NodeRecovering:
		return "RECOVERING"
	case NodeRemoved:
		return "REMOVED"
	default:
		return "?"
	}
}

// Node is one database node.
type Node struct {
	ID   int
	Name string // sim resource name ("v0", "v1", ...)
	Addr string // host address clients connect to

	state atomic.Int32
	// recoveryEpoch is the epoch the node last caught up to when rejoining
	// after a down window (0 = never recovered).
	recoveryEpoch atomic.Uint64
	// cluster backs SetDown(false) heals with real recovery. Nil only in
	// tests constructing bare nodes.
	cluster *Cluster
}

// State returns the node's lifecycle state.
func (n *Node) State() NodeState { return NodeState(n.state.Load()) }

func (n *Node) setState(s NodeState) { n.state.Store(int32(s)) }

// RecoveryEpoch returns the epoch the node last recovered to (0 if it never
// left the cluster).
func (n *Node) RecoveryEpoch() uint64 { return n.recoveryEpoch.Load() }

// SetDown marks the node failed (true) or heals it (false). Healing a downed
// node does not silently rejoin it with stale stores: the node enters
// RECOVERING and synchronously replays the epochs it missed from its buddies
// (Cluster.RecoverNode), only serving reads again once caught up. A removed
// node stays removed.
func (n *Node) SetDown(d bool) {
	if d {
		if n.State() == NodeRemoved {
			return
		}
		n.setState(NodeDown)
		return
	}
	if n.State() != NodeDown {
		return
	}
	if n.cluster != nil {
		_ = n.cluster.RecoverNode(n.ID)
		return
	}
	n.setState(NodeUp)
}

// Down reports whether the node is unable to serve reads (any state but UP).
func (n *Node) Down() bool { return n.State() != NodeUp }

// acceptsWrites reports whether the node's stores must receive new writes.
// RECOVERING nodes do: tables already reconciled stay current, and tables not
// yet reconciled are rebuilt wholesale anyway.
func (n *Node) acceptsWrites() bool {
	s := n.State()
	return s == NodeUp || s == NodeRecovering
}

// Config controls cluster creation.
type Config struct {
	Nodes int
	// KSafety is the default k-safety for new segmented tables created
	// without an explicit KSAFE clause. The paper's experiments run with
	// k-safety off (§4.1), which is also the default here.
	KSafety int
	// WOSMoveoutRows is ignored: every write lands as a ROS container, so
	// there is no write buffer to move out. It stays only so that configs
	// naming it keep compiling.
	WOSMoveoutRows int
	// MaxClientSessions bounds concurrent sessions per node (the
	// MAX-CLIENT-SESSIONS parameter raised to 100 in §4.1).
	MaxClientSessions int
	// DataDir, when set, makes the cluster durable: storage persists under
	// this directory, every write is logged to a write-ahead log fsynced on
	// commit, and NewCluster recovers the last durable epoch from it on
	// reopen. Empty (the default) runs fully in memory.
	DataDir string
	// MetricsAddr, when set (e.g. "127.0.0.1:8085" or ":0"), starts an HTTP
	// listener serving Prometheus-text /metrics and a /healthz probe that
	// reflects the node state machine. Empty (the default) serves nothing.
	MetricsAddr string
}

// Cluster is a running database cluster.
type Cluster struct {
	cfg Config
	// nodesPtr holds the node slice copy-on-write: ALTER CLUSTER ADD NODE
	// swaps in an extended copy, so readers index it without locks. Node IDs
	// are stable — removed nodes keep their slot, marked NodeRemoved.
	nodesPtr atomic.Pointer[[]*Node]
	cat      *catalog.Catalog
	txm      *txn.Manager
	dfs      *dfs.FS

	// membershipMu serializes cluster lifecycle operations (add/remove node,
	// whole-node recovery) against each other.
	membershipMu sync.Mutex
	// ddlMu makes a catalog or pool statement's apply and its log record one
	// step, so the WAL orders racing statements the way they took effect.
	ddlMu sync.Mutex
	// reb records rebalance/recovery progress for
	// v_monitor.rebalance_operations.
	reb rebalanceTracker
	// plans records each SELECT's planning outcome (join order, estimates,
	// container pruning) for v_monitor.query_plans.
	plans planTracker
	// queue records each admission that waited or was refused, for
	// v_monitor.resource_queue_events; queueMu guards it.
	queueMu sync.Mutex
	queue   *obs.Ring[queueEvent]

	udxMu sync.RWMutex
	udx   map[string]boundFunc

	sessMu   sync.Mutex
	sessions map[int]int // node id → open session count

	// mon collects engine-side spans (query executes, COPY streams) and
	// backs the v_monitor.query_requests / load_streams system tables.
	mon *obs.Collector

	// pools is the resource manager: named admission-control pools that
	// bound per-pool memory and concurrency, with queueing. Every statement
	// passes through its session's pool before executing.
	pools *pool.Manager

	// Durable-mode state (zero when Config.DataDir is empty): the data
	// directory and the current write-ahead log with its file sequence
	// number. walMu guards the log pointer across checkpoint cutover;
	// nextDiskID names new data files; walBytes counts every byte appended to
	// a log of this cluster, and ckptWALBytes is walBytes as the last
	// checkpoint found it (maybeCheckpoint).
	dataDir      string
	walMu        sync.Mutex
	wlog         *wal.Log
	walSeq       uint64
	nextDiskID   atomic.Uint64
	walBytes     atomic.Int64
	ckptWALBytes atomic.Int64

	// dcs is the durable data-collector spool (nil on in-memory clusters):
	// monitoring history written through the collector's taps and read back
	// by the v_monitor.dc_* tables.
	dcs *dc.Spool

	// metrics is the optional /metrics + /healthz HTTP endpoint
	// (Config.MetricsAddr), nil when not serving.
	metrics *metricsServer
}

// NewCluster creates a cluster with the given configuration.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("vertica: cluster needs at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.MaxClientSessions == 0 {
		cfg.MaxClientSessions = 100
	}
	c := &Cluster{
		cfg:      cfg,
		cat:      catalog.New(cfg.Nodes),
		txm:      txn.NewManager(),
		dfs:      dfs.New(),
		udx:      make(map[string]boundFunc),
		sessions: make(map[int]int),
		mon:      obs.NewCollector(),
		pools:    pool.NewManager(),
		reb:      rebalanceTracker{ops: obs.NewRing[*rebalanceOp](rebalanceHistory)},
		plans:    planTracker{ring: obs.NewRing[planRecord](planHistory)},
		queue:    obs.NewRing[queueEvent](queueHistory),
	}
	nodes := make([]*Node, 0, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		nodes = append(nodes, c.newNode(i))
	}
	c.nodesPtr.Store(&nodes)
	c.registerBuiltins()
	if cfg.DataDir != "" {
		c.dataDir = cfg.DataDir
		var err error
		if c.dfs, err = dfs.Open(filepath.Join(cfg.DataDir, "dfs")); err != nil {
			return nil, fmt.Errorf("vertica: opening the DFS under %s: %w", cfg.DataDir, err)
		}
		if err := c.openDurable(); err != nil {
			return nil, fmt.Errorf("vertica: opening data directory %s: %w", cfg.DataDir, err)
		}
		if err := c.openDC(); err != nil {
			return nil, fmt.Errorf("vertica: opening data collector under %s: %w", cfg.DataDir, err)
		}
	}
	if cfg.MetricsAddr != "" {
		if err := c.startMetrics(cfg.MetricsAddr); err != nil {
			return nil, fmt.Errorf("vertica: starting metrics endpoint on %s: %w", cfg.MetricsAddr, err)
		}
	}
	return c, nil
}

// Close detaches a durable cluster from its write-ahead log (flushing
// buffered records), closes the data-collector spool, and stops the
// metrics endpoint. In-memory clusters without a metrics listener need no
// Close.
func (c *Cluster) Close() error {
	if c.metrics != nil {
		c.metrics.stop()
		c.metrics = nil
	}
	if c.dcs != nil {
		c.mon.SetTap(nil, nil)
		c.dcs.Close()
		c.dcs = nil
	}
	c.txm.SetCommitLog(nil)
	c.walMu.Lock()
	l := c.wlog
	c.wlog = nil
	c.walMu.Unlock()
	if l != nil {
		return l.Close()
	}
	return nil
}

// MustNewCluster is NewCluster for tests and examples that cannot fail.
func MustNewCluster(nodes int) *Cluster {
	c, err := NewCluster(Config{Nodes: nodes})
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cluster) newNode(id int) *Node {
	return &Node{
		ID:      id,
		Name:    sim.VName(id),
		Addr:    fmt.Sprintf("vertica-node-%d.local", id),
		cluster: c,
	}
}

// NumNodes returns the number of node slots ever allocated (including
// removed nodes; IDs are stable).
func (c *Cluster) NumNodes() int { return len(c.nodeList()) }

// Nodes returns a snapshot of the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodeList() }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodeList()[i] }

func (c *Cluster) nodeList() []*Node { return *c.nodesPtr.Load() }

// node returns node id, or nil when out of range.
func (c *Cluster) node(id int) *Node {
	nodes := c.nodeList()
	if id < 0 || id >= len(nodes) {
		return nil
	}
	return nodes[id]
}

// nodeUp reports whether node id is serving reads.
func (c *Cluster) nodeUp(id int) bool {
	n := c.node(id)
	return n != nil && n.State() == NodeUp
}

// nodeAcceptsWrites reports whether node id's stores must receive writes
// (UP or RECOVERING).
func (c *Cluster) nodeAcceptsWrites(id int) bool {
	n := c.node(id)
	return n != nil && n.acceptsWrites()
}

// Catalog exposes the cluster catalog (read-mostly; DDL goes through SQL).
func (c *Cluster) Catalog() *catalog.Catalog { return c.cat }

// DFS exposes the internal distributed file system used by model deployment.
func (c *Cluster) DFS() *dfs.FS { return c.dfs }

// LastEpoch returns the last closed epoch.
func (c *Cluster) LastEpoch() uint64 { return c.txm.LastEpoch() }

// Pools exposes the cluster's resource-pool manager (for tests and tools;
// normal administration goes through CREATE/ALTER RESOURCE POOL SQL).
func (c *Cluster) Pools() *pool.Manager { return c.pools }

// Obs exposes the cluster's monitoring collector: the span/counter store
// behind the v_monitor system tables. Disable it (Obs().SetEnabled(false))
// to run with zero observability overhead, e.g. for benchmarking.
func (c *Cluster) Obs() *obs.Collector { return c.mon }

// boundFunc is one registry entry: the function and the return type a call
// to it is planned with.
type boundFunc struct {
	fn  UDxFunc
	ret types.Type
}

// RegisterUDx installs (or replaces) a scalar UDx under the given name.
// Names are case-insensitive. A UDx is a scoring function: its calls are typed
// FLOAT, an INTEGER it returns widens, and any other kind fails the statement.
func (c *Cluster) RegisterUDx(name string, fn UDxFunc) { c.registerFunc(name, types.Float64, fn) }

// registerFunc installs a function whose calls are typed ret.
func (c *Cluster) registerFunc(name string, ret types.Type, fn UDxFunc) {
	c.udxMu.Lock()
	defer c.udxMu.Unlock()
	c.udx[upper(name)] = boundFunc{fn, ret}
}

func upper(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// registerBuiltins installs the engine's built-in scalar functions.
func (c *Cluster) registerBuiltins() {
	c.registerDCBuiltins()
	c.registerFunc("LAST_EPOCH", types.Int64, func(args []types.Value, _ map[string]string) (types.Value, error) {
		if len(args) != 0 {
			return types.Value{}, fmt.Errorf("LAST_EPOCH takes no arguments")
		}
		return types.IntValue(int64(c.txm.LastEpoch())), nil
	})
	c.registerFunc("CURRENT_EPOCH", types.Int64, func(args []types.Value, _ map[string]string) (types.Value, error) {
		return types.IntValue(int64(c.txm.LastEpoch() + 1)), nil
	})
	c.registerFunc("VERSION", types.Varchar, func(args []types.Value, _ map[string]string) (types.Value, error) {
		return types.StringValue("vsfabric MPP engine v1.0 (Vertica 7.2.1 semantics)"), nil
	})
	c.registerFunc("LENGTH", types.Int64, func(args []types.Value, _ map[string]string) (types.Value, error) {
		if len(args) != 1 {
			return types.Value{}, fmt.Errorf("LENGTH takes 1 argument")
		}
		if args[0].Null {
			return types.NullValue(types.Int64), nil
		}
		return types.IntValue(int64(len(args[0].S))), nil
	})
	c.RegisterUDx("ABS", func(args []types.Value, _ map[string]string) (types.Value, error) {
		if len(args) != 1 {
			return types.Value{}, fmt.Errorf("ABS takes 1 argument")
		}
		if args[0].Null {
			return args[0], nil
		}
		return types.FloatValue(math.Abs(args[0].AsFloat())), nil
	})
}

// bindFuncs walks an expression binding FuncCall nodes to registered functions:
// the implementation and the return type the plan and the evaluation hold it to.
func (c *Cluster) bindFuncs(e expr.Expr) (err error) {
	expr.Walk(e, func(n expr.Expr) {
		call, isCall := n.(*expr.FuncCall)
		if !isCall {
			return
		}
		c.udxMu.RLock()
		f, ok := c.udx[upper(call.Name)]
		c.udxMu.RUnlock()
		if !ok && err == nil {
			err = fmt.Errorf("vertica: no function or UDx named %q", call.Name)
		}
		call.Impl, call.Ret = f.fn, f.ret
	})
	return err
}

// Connect opens a session against the given node. It enforces the per-node
// session limit. Connecting to a DOWN node fails with ErrNodeDown; to a
// REMOVED node with ErrNodeRemoved (a distinct, permanent condition — the
// node will never return). A RECOVERING node accepts sessions so monitoring
// reads keep working, but non-monitoring statements are rejected at dispatch
// until recovery completes.
func (c *Cluster) Connect(nodeID int) (*Session, error) {
	n := c.node(nodeID)
	if n == nil {
		return nil, fmt.Errorf("vertica: no node %d in %d-node cluster", nodeID, c.NumNodes())
	}
	switch n.State() {
	case NodeDown:
		return nil, fmt.Errorf("%w: node %d is down", ErrNodeDown, nodeID)
	case NodeRemoved:
		return nil, fmt.Errorf("%w: node %d", ErrNodeRemoved, nodeID)
	}
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.sessions[nodeID] >= c.cfg.MaxClientSessions {
		return nil, fmt.Errorf("%w: node %d at limit %d", ErrSessionLimit, nodeID, c.cfg.MaxClientSessions)
	}
	c.sessions[nodeID]++
	return &Session{cluster: c, node: n}, nil
}

// ConnectAddr opens a session against the node with the given address.
func (c *Cluster) ConnectAddr(addr string) (*Session, error) {
	for _, n := range c.nodeList() {
		if n.Addr == addr {
			return c.Connect(n.ID)
		}
	}
	return nil, fmt.Errorf("vertica: no node with address %q", addr)
}

func (c *Cluster) releaseSession(nodeID int) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.sessions[nodeID] > 0 {
		c.sessions[nodeID]--
	}
}

// OpenSessions reports the number of open sessions on a node (for tests).
func (c *Cluster) OpenSessions(nodeID int) int {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	return c.sessions[nodeID]
}
