package vertica

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vsfabric/internal/obs"
	"vsfabric/internal/rebalance"
	"vsfabric/internal/sim"
	"vsfabric/internal/txn"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// This file implements elastic cluster membership: ALTER CLUSTER ADD NODE and
// ALTER CLUSTER REMOVE NODE. Both recompute the membership ring and then move
// every table onto it, one table per rebalance transaction:
//
//	EXCLUSIVE lock → rebalance.MoveTable builds a complete new layout from the
//	committed contents → a commit hook logs the move and swaps the catalog
//	layout → Commit closes the rebalance epoch.
//
// The exclusive lock is the linchpin: while held, no provisional rows exist
// in the table, so the moved containers are exactly the committed state, and
// the layout swap at commit flips visibility atomically. Readers that
// resolved the table before the swap keep scanning the old stores (the swap
// is copy-on-write), so AT EPOCH scans and V2S jobs pinned to their planning
// epoch stay correct across the move.
//
// Between the membership change and the last table's rebalance the cluster is
// mid-drain: the catalog ring names the new membership while individual
// tables still carry their old rings. Every table remains self-consistent
// (its Ring describes its own Stores), which is what read and write routing
// key off — the mixed state is safe, just not yet balanced. A crash in this
// window is converged at reopen (openDurable rebalances any table whose ring
// lags the logged membership).

// rebalanceOp is one recorded cluster-lifecycle operation, surfaced through
// v_monitor.rebalance_operations.
type rebalanceOp struct {
	ID         uint64
	Kind       string // "add_node" | "remove_node" | "recovery"
	Table      string
	Node       int // the node being added / removed / recovered
	Status     string
	Rows       int // committed row versions placed in the new layout
	RowsMoved  int // versions whose owning node changed
	Containers int
	StartEpoch uint64
	EndEpoch   uint64
	Err        string
}

// rebalanceTracker keeps a bounded in-memory history of lifecycle operations.
// Entries are filled in place by finish, under the tracker's lock.
type rebalanceTracker struct {
	mu   sync.Mutex
	next uint64
	ops  *obs.Ring[*rebalanceOp]
}

// rebalanceHistory bounds the tracker: the oldest entries age out first.
const rebalanceHistory = 256

// start records a running operation and returns its entry for finish.
func (t *rebalanceTracker) start(kind, table string, node int, epoch uint64) *rebalanceOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	op := &rebalanceOp{
		ID: t.next, Kind: kind, Table: table, Node: node,
		Status: "running", StartEpoch: epoch,
	}
	t.ops.Add(op)
	return op
}

// finish fills in the entry start returned.
func (t *rebalanceTracker) finish(op *rebalanceOp, res rebalance.Result, epoch uint64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	op.Rows = res.Rows
	op.RowsMoved = res.RowsMoved
	op.Containers = res.Containers
	op.EndEpoch = epoch
	op.Status = "complete"
	if err != nil {
		op.Status = "failed"
		op.Err = err.Error()
	}
}

func (t *rebalanceTracker) snapshot() []rebalanceOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := t.ops.Snapshot()
	out := make([]rebalanceOp, len(ops))
	for i, op := range ops {
		out[i] = *op
	}
	return out
}

// AddNode grows the cluster by one node (ALTER CLUSTER ADD NODE) and
// rebalances every table onto the extended ring. Returns the new node's ID.
// The node is UP and receiving writes from the moment it joins the ring;
// tables serve reads from their old layouts until their individual rebalance
// commits, so queries never observe a half-moved table.
func (c *Cluster) AddNode() (int, error) {
	c.membershipMu.Lock()
	defer c.membershipMu.Unlock()

	id := c.NumNodes()
	// The directory comes first: a node that cannot have one is never logged.
	if err := c.makeNodeDir(id); err != nil {
		return -1, err
	}
	newRing := append(c.cat.Ring(), id)
	// The membership record precedes the per-table rebalance records in the
	// WAL: replaying it re-creates the node and sets the target ring the
	// rebalance records (or post-replay convergence) move tables onto.
	if err := c.logAndApplyDDL(opAddNode, ddlPayload{Node: id, Ring: newRing}); err != nil {
		return -1, err
	}
	c.mon.Add("cluster.nodes_added", 1)
	return id, c.rebalanceAll("add_node", id, newRing)
}

// RemoveNode drops a node from the cluster (ALTER CLUSTER REMOVE NODE),
// draining its segments onto the surviving members first. The node keeps
// serving reads during the drain — its replicas are the move's primary
// sources — and is marked REMOVED only once every table has left it.
func (c *Cluster) RemoveNode(id int) error {
	c.membershipMu.Lock()
	defer c.membershipMu.Unlock()

	n := c.node(id)
	if n == nil {
		return fmt.Errorf("vertica: no node %d in %d-node cluster", id, c.NumNodes())
	}
	if n.State() == NodeRemoved {
		return fmt.Errorf("%w: node %d", ErrNodeRemoved, id)
	}
	ring := c.cat.Ring()
	newRing := rebalance.RingWithout(ring, id)
	if len(newRing) == len(ring) {
		return fmt.Errorf("vertica: node %d is not a cluster member", id)
	}
	if len(newRing) == 0 {
		return fmt.Errorf("vertica: cannot remove the last node")
	}
	// Pre-validate k-safety across the whole catalog before logging anything:
	// a shrink that would leave some table with k >= nodes must fail cleanly.
	for _, tbl := range c.cat.Tables() {
		if tbl.Def.KSafety >= len(newRing) {
			return fmt.Errorf("vertica: cannot remove node %d: table %q k-safety %d needs more than %d nodes",
				id, tbl.Def.Name, tbl.Def.KSafety, len(newRing))
		}
	}
	if err := c.logAndApplyDDL(opRemoveNode, ddlPayload{Node: id, Ring: newRing}); err != nil {
		return err
	}
	if err := c.rebalanceAll("remove_node", id, newRing); err != nil {
		// The membership change is logged and will converge at reopen; the
		// node is left un-removed so its replicas stay available as sources
		// for a retry.
		return err
	}
	n.setState(NodeRemoved)
	c.mon.Add("cluster.nodes_removed", 1)
	return nil
}

// logAndApplyDDL is the membership operations' order — the record first, so
// a crash after it converges at reopen instead of forgetting a ring that
// per-table rebalance records may already refer to.
func (c *Cluster) logAndApplyDDL(op byte, p ddlPayload) error {
	if err := c.logDDL(op, p); err != nil {
		return err
	}
	return c.applyDDL(op, p, false)
}

// makeNodeDir creates node id's data directory on a durable cluster.
func (c *Cluster) makeNodeDir(id int) error {
	if !c.durable() {
		return nil
	}
	return os.MkdirAll(filepath.Join(c.dataDir, fmt.Sprintf("node-%d", id)), 0o755)
}

// growNodes extends the node slice to n slots (IDs are never reused), each
// new node UP and with its data directory.
func (c *Cluster) growNodes(n int) error {
	nodes := c.nodeList()
	if n <= len(nodes) {
		return nil
	}
	grown := append([]*Node(nil), nodes...)
	for id := len(nodes); id < n; id++ {
		if err := c.makeNodeDir(id); err != nil {
			return err
		}
		grown = append(grown, c.newNode(id))
	}
	c.nodesPtr.Store(&grown)
	return nil
}

// retireOffRing marks REMOVED every node the membership ring no longer
// names: at reopen, the nodes the manifest or a replayed REMOVE NODE record
// dropped, once every table has converged off them.
func (c *Cluster) retireOffRing() {
	onRing := make(map[int]bool)
	for _, id := range c.cat.Ring() {
		onRing[id] = true
	}
	for _, n := range c.nodeList() {
		if !onRing[n.ID] {
			n.setState(NodeRemoved)
		}
	}
}

// rebalanceAll moves every table onto ring, continuing past per-table
// failures (a table whose sources are k-safety-exhausted right now should
// not block the others) and returning the first error.
func (c *Cluster) rebalanceAll(kind string, node int, ring []int) error {
	var firstErr error
	for _, tbl := range c.cat.Tables() {
		if err := c.rebalanceTable(kind, node, tbl.Def.Name, ring); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vertica: rebalancing table %q: %w", tbl.Def.Name, err)
		}
	}
	return firstErr
}

// rebalanceTable moves one table onto ring inside its own transaction. The
// epoch the commit closes is the table's rebalance epoch: reads at or before
// it are answered identically by old and new layouts (versions carry their
// full MVCC history), reads after it see the new placement.
func (c *Cluster) rebalanceTable(kind string, node int, name string, ring []int) error {
	tx := c.txm.Begin()
	defer tx.Abort()
	if err := tx.Acquire(name, txn.LockExclusive); err != nil {
		return err
	}
	// Re-resolve under the lock: the *Table may have been swapped (or
	// dropped) while we waited.
	tbl, ok := c.cat.Table(name)
	if !ok {
		return nil
	}
	if rebalance.RingsEqual(tbl.Ring, ring) {
		return nil
	}
	op := c.reb.start(kind, name, node, c.txm.LastEpoch())
	sp := obs.Start(c.mon, "rebalance", sim.VName(node))
	healthy := func(id int) bool { return c.nodeUp(id) }
	lay, res, err := rebalance.MoveTable(tbl, ring, healthy)
	if err != nil {
		c.reb.finish(op, res, c.txm.LastEpoch(), err)
		if sp != nil {
			sp.End(err)
		}
		return err
	}
	tx.OnCommit(func() error {
		if err := c.logDDL(opRebalance, ddlPayload{Name: name, Ring: lay.Ring}); err != nil {
			return err
		}
		// Swapped in directly: applyDDL's rebalance arm recomputes the move,
		// and this one was just streamed under the table lock.
		_, err := c.cat.SwapLayout(name, lay)
		return err
	})
	epoch, err := tx.Commit()
	c.reb.finish(op, res, epoch, err)
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("table %s: %d rows, %d moved", name, res.Rows, res.RowsMoved))
		sp.End(err)
	}
	return err
}

// RebalanceOps returns a snapshot of recorded lifecycle operations (backs
// v_monitor.rebalance_operations; exported for tests).
func (c *Cluster) RebalanceOps() []rebalanceOp { return c.reb.snapshot() }

// executeAlterCluster runs ALTER CLUSTER ADD/REMOVE NODE. Membership changes
// manage their own per-table transactions, so they cannot run inside an
// explicit transaction. ADD returns the new node's id as a one-row result.
func (s *Session) executeAlterCluster(st *vsql.AlterCluster) (*Result, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("vertica: ALTER CLUSTER cannot run inside a transaction")
	}
	switch st.Action {
	case vsql.AlterClusterAdd:
		id, err := s.cluster.AddNode()
		if err != nil {
			return nil, err
		}
		schema := types.NewSchema(types.Column{Name: "node_id", T: types.Int64})
		batches, err := columnize([]types.Row{{types.IntValue(int64(id))}}, schema)
		return &Result{Schema: schema, Batches: batches, Epoch: s.cluster.txm.LastEpoch()}, err
	case vsql.AlterClusterRemove:
		if err := s.cluster.RemoveNode(st.Node); err != nil {
			return nil, err
		}
		return &Result{Epoch: s.cluster.txm.LastEpoch()}, nil
	default:
		return nil, fmt.Errorf("vertica: unknown ALTER CLUSTER action %d", st.Action)
	}
}
