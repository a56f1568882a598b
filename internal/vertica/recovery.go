package vertica

import (
	"fmt"

	"vsfabric/internal/obs"
	"vsfabric/internal/rebalance"
	"vsfabric/internal/storage"
	"vsfabric/internal/txn"
)

// This file implements node recovery: a node returning from a down window
// re-enters the cluster as RECOVERING, rebuilds every store it hosts from a
// live buddy replica, and rejoins the ring for reads only once caught up.
//
// While a node is DOWN its stores receive no writes, so they are stale by
// exactly the epochs committed during the window. Rather than replaying those
// epochs incrementally, recovery rebuilds each hosted store wholesale: under
// the table's EXCLUSIVE lock, export the committed row versions of the same
// segment from a healthy replica and swap them in with ReplaceContents. The
// export carries full MVCC history (insert and delete epochs), so the rebuilt
// store answers AT EPOCH queries for any still-pinned historical epoch
// exactly as the replica does. The exclusive lock guarantees no provisional
// rows exist during the copy and that no writer is mid-flight on the table;
// writes that began after the node flipped to RECOVERING land on its stores
// anyway (RECOVERING accepts writes), so a table reconciled early in the pass
// cannot go stale again before the node is UP.
//
// Recovery is memory-safe against concurrent writers without extra locking:
// the RECOVERING flip happens-before the per-table EXCLUSIVE acquire, which
// happens-before any later writer's lock acquire, so every post-recovery
// writer observes the node as write-accepting.

// RecoverNode transitions a DOWN node through RECOVERING back to UP,
// rebuilding each of its stale stores from a live replica. On a per-table
// failure (e.g. k-safety exhausted because another node is also down) the
// node reverts to DOWN so a later heal retries from scratch. Recovering an
// UP node is a no-op; a REMOVED node cannot recover.
func (c *Cluster) RecoverNode(id int) error {
	c.membershipMu.Lock()
	defer c.membershipMu.Unlock()

	n := c.node(id)
	if n == nil {
		return fmt.Errorf("vertica: no node %d in %d-node cluster", id, c.NumNodes())
	}
	switch n.State() {
	case NodeUp:
		return nil
	case NodeRemoved:
		return fmt.Errorf("%w: node %d", ErrNodeRemoved, id)
	}
	n.setState(NodeRecovering)
	sp := obs.Start(c.mon, "recover_node", n.Name)
	c.mon.Add("cluster.node_recoveries", 1)

	for _, tbl := range c.cat.Tables() {
		if err := c.recoverTable(n, tbl.Def.Name); err != nil {
			n.setState(NodeDown)
			if sp != nil {
				sp.End(err)
			}
			return fmt.Errorf("vertica: recovering node %d table %q: %w", id, tbl.Def.Name, err)
		}
	}
	// The recovery epoch: every store the node hosts now reflects all commits
	// up to (at least) the epoch its table's reconciliation closed over.
	epoch := c.txm.LastEpoch()
	n.recoveryEpoch.Store(epoch)
	n.setState(NodeUp)
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("caught up to epoch %d", epoch))
		sp.End(nil)
	}
	return nil
}

// recoverTable rebuilds every store of one table hosted on node n from live
// replicas, inside an EXCLUSIVE-locked transaction. Tables whose ring does
// not include the node have nothing hosted there and are skipped.
func (c *Cluster) recoverTable(n *Node, name string) error {
	tx := c.txm.Begin()
	defer tx.Abort()
	if err := tx.Acquire(name, txn.LockExclusive); err != nil {
		return err
	}
	tbl, ok := c.cat.Table(name)
	if !ok {
		return nil // dropped while we waited
	}
	pos := tbl.PosOf(n.ID)
	if pos < 0 {
		return nil // not in this table's ring (added mid-window, pre-rebalance)
	}
	healthy := func(id int) bool { return c.nodeUp(id) }
	op := c.reb.start("recovery", name, n.ID, c.txm.LastEpoch())
	var res rebalance.Result
	res.Table = name

	rebuild := func(dst *storage.Store, seg int) error {
		if !dst.Stale() {
			// The store missed nothing: either no write committed during the
			// down window, or writes to its segment were rejected outright
			// because no replica was writable. Its contents are current.
			return nil
		}
		src, err := rebalance.SourceFor(tbl, seg, healthy)
		if err != nil {
			return err
		}
		if src == dst {
			return nil
		}
		var versions storage.Versions
		if err := src.ExportVersions(&versions); err != nil {
			return err
		}
		if err := dst.ReplaceContents(&versions); err != nil {
			return err
		}
		dst.ClearStale()
		res.Rows += versions.Len()
		res.RowsMoved += versions.Len()
		res.Containers += dst.ContainerCount()
		return nil
	}

	for _, h := range tbl.Hosted(pos) {
		if err := rebuild(h.Store, h.Seg); err != nil {
			c.reb.finish(op, res, c.txm.LastEpoch(), err)
			return err
		}
	}
	// Commit closes the table's recovery epoch. The transaction wrote nothing
	// provisional — ReplaceContents installs already-committed versions — so
	// the commit's only effects are the epoch close and the lock release.
	epoch, err := tx.Commit()
	c.reb.finish(op, res, epoch, err)
	return err
}
