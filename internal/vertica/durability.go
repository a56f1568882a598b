package vertica

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vsfabric/internal/catalog"
	"vsfabric/internal/framelog"
	"vsfabric/internal/obs"
	"vsfabric/internal/pool"
	"vsfabric/internal/rebalance"
	"vsfabric/internal/storage"
	"vsfabric/internal/txn"
	"vsfabric/internal/types"
	"vsfabric/internal/wal"
)

// This file implements the cluster's durable form: a per-node data directory
// of ROS container files, a write-ahead log, ARIES-style replay on open, and
// the checkpoint that persists committed container state and truncates the
// log.
//
// Layout under Config.DataDir:
//
//	MANIFEST.json      — the durable catalog + file map, swapped atomically
//	wal-<seq>.log      — the current write-ahead log
//	node-<i>/c-<id>.ros — one file per ROS container on node i
//	dfs/<path>         — the internal DFS's files (deployed models)
//
// Invariants:
//   - Provisional (uncommitted) state is never persisted in data files; the
//     WAL alone carries it, and a checkpoint copies still-pending records
//     into the fresh log it cuts over to.
//   - A transaction is durable iff its commit record reached the log —
//     fsynced before Commit returns.
//   - The manifest is the recovery root: data files and the new WAL are
//     written and synced first, then MANIFEST.json is swapped via rename, so
//     a crash at any instant recovers from whichever manifest is current.

const manifestName = "MANIFEST.json"

// manifestVersion is the manifest format this build writes and the only one
// it reads. Version 1 could name a write-buffer snapshot file per store, which
// this build has no reader for; encoding/json would drop the field without a
// word.
const manifestVersion = 2

// DDL opcodes carried in wal.Record.Op.
const (
	opCreateTable byte = iota + 1
	opDropTable
	opRenameTable
	opCreateView
	opDropView
	opAddNode
	opRemoveNode
	opRebalance
	opCreatePool
	opAlterPool
	opDropPool
)

// ddlPayload is the JSON body of a RecDDL record.
type ddlPayload struct {
	Def     *catalog.TableDef `json:"def,omitempty"`
	Name    string            `json:"name,omitempty"`
	NewName string            `json:"new_name,omitempty"`
	SQL     string            `json:"sql,omitempty"`
	// Node is the subject of add/remove-node records; Ring is the membership
	// ring after the change (add/remove) or the table's target ring
	// (rebalance). A rebalance record carries no row data: MoveTable is a
	// deterministic function of the table's committed contents and the target
	// ring, so replaying the record reproduces the placement exactly.
	Node int   `json:"node,omitempty"`
	Ring []int `json:"ring,omitempty"`
	// Pool is the resulting config of a create/alter-pool record (Name names
	// the pool). Alter logs the full post-change config, so replay of both
	// opcodes is a plain upsert and the log's last word wins.
	Pool *pool.Config `json:"pool,omitempty"`
}

// storeManifest locates one store's container files (paths relative to the
// data directory).
type storeManifest struct {
	Containers []string `json:"containers,omitempty"`
}

type tableManifest struct {
	Def          catalog.TableDef  `json:"def"`
	CreatedEpoch uint64            `json:"created_epoch"`
	Ring         []int             `json:"ring,omitempty"`
	Stores       []storeManifest   `json:"stores"`
	Buddies      [][]storeManifest `json:"buddies,omitempty"`
}

type viewManifest struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// manifest is the recovery root: the catalog, every store's data files, and
// the WAL to replay on top of them.
type manifest struct {
	Version      int    `json:"version"`
	DurableEpoch uint64 `json:"durable_epoch"`
	WALFile      string `json:"wal_file"`
	WALSeq       uint64 `json:"wal_seq"`
	NextDiskID   uint64 `json:"next_disk_id"`
	// Nodes is the number of node slots ever allocated (0 in a fresh
	// directory's first manifest, meaning the configured count); Removed lists
	// the IDs of nodes dropped by ALTER CLUSTER REMOVE NODE.
	Nodes   int             `json:"nodes,omitempty"`
	Removed []int           `json:"removed,omitempty"`
	Tables  []tableManifest `json:"tables,omitempty"`
	Views   []viewManifest  `json:"views,omitempty"`
	// Pools carries the non-built-in resource pools: pool DDL lives only in
	// the WAL, so a checkpoint (which truncates the log) must carry the
	// surviving configs in the manifest.
	Pools map[string]pool.Config `json:"pools,omitempty"`
}

func (c *Cluster) durable() bool { return c.dataDir != "" }

// curWAL returns the current log under the swap lock.
func (c *Cluster) curWAL() *wal.Log {
	c.walMu.Lock()
	defer c.walMu.Unlock()
	return c.wlog
}

// walAppend appends one record to the current log. A record that races a
// checkpoint's log swap is forwarded to the successor by the sealed log.
func (c *Cluster) walAppend(rec wal.Record) error {
	l := c.curWAL()
	if l == nil {
		return nil
	}
	return l.Append(rec)
}

// logInsert records the rows an INSERT/COPY wrote under the transaction's
// provisional tag, from the blocks the stores were given: one row block over
// all of them, the bytes one dense batch of the same rows gives. Routing is
// deterministic (segmentation hash), so one logical record regenerates every
// store's writes on replay.
func (s *Session) logInsert(tx *txn.Txn, tbl *catalog.Table, blocks []*storage.Batch) error {
	if !s.cluster.durable() || storage.SelectedRows(blocks) == 0 {
		return nil
	}
	payload, err := storage.AppendBatches(nil, tbl.Def.Schema, blocks)
	if err != nil {
		return err
	}
	return s.cluster.walAppend(wal.Record{
		Type: wal.RecInsert, Tag: tx.Tag(), Table: tbl.Def.Name, Rows: payload,
	})
}

// logDelete records the n rows a DELETE/UPDATE marked, from the vectors they
// were gathered into, plus the snapshot epoch the statement read at. Replay
// re-applies the delete by row equality under the same visibility, which is
// exact: equal rows hash to the same segment, and the predicate is a pure
// function of row values.
func (s *Session) logDelete(tx *txn.Txn, tbl *catalog.Table, cols []storage.Column, n int, visEpoch uint64) error {
	if !s.cluster.durable() || n == 0 {
		return nil
	}
	payload, err := storage.AppendBatches(nil, tbl.Def.Schema, []*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(n)}})
	if err != nil {
		return err
	}
	return s.cluster.walAppend(wal.Record{
		Type: wal.RecDelete, Tag: tx.Tag(), Epoch: visEpoch, Table: tbl.Def.Name, Rows: payload,
	})
}

// logDDL appends a catalog operation and syncs it (DDL applies immediately —
// autocommit, or a commit hook that is not rolled back — so it must be
// durable at application).
func (c *Cluster) logDDL(op byte, p ddlPayload) error {
	l := c.curWAL()
	if l == nil {
		return nil
	}
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if err := l.Append(wal.Record{Type: wal.RecDDL, Op: op, DDL: b}); err != nil {
		return err
	}
	return l.Sync()
}

// allStores returns every store holding rows of tbl (primaries then buddies).
func allStores(tbl *catalog.Table) []*storage.Store {
	out := append([]*storage.Store(nil), tbl.Stores...)
	for _, reps := range tbl.Buddies {
		out = append(out, reps...)
	}
	return out
}

// appendRowKey appends to key a canonical binary encoding of row i of cols,
// used to re-match logged delete rows against stored rows during replay.
// Floats are compared by bit pattern (the logged rows are copies of the stored
// ones, so bits agree).
func appendRowKey(key []byte, cols []storage.Column, i int) []byte {
	for _, c := range cols {
		v := c.Get(i)
		key = append(key, byte(v.T))
		if v.Null {
			key = append(key, 1)
			continue
		}
		key = append(key, 0)
		switch v.T {
		case types.Int64:
			key = binary.LittleEndian.AppendUint64(key, uint64(v.I))
		case types.Float64:
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v.F))
		case types.Bool:
			if v.B {
				key = append(key, 1)
			} else {
				key = append(key, 0)
			}
		default:
			key = binary.LittleEndian.AppendUint32(key, uint32(len(v.S)))
			key = append(key, v.S...)
		}
	}
	return key
}

// openDurable attaches the cluster to its data directory: it loads the
// manifest's container files into their stores, replays the write-ahead log —
// redoing committed transactions, discarding provisional ones — and reopens
// the log for appending. A missing manifest initializes a fresh
// directory; a manifest of another format version is refused.
func (c *Cluster) openDurable() error {
	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return err
	}
	for i := 0; i < c.cfg.Nodes; i++ {
		if err := c.makeNodeDir(i); err != nil {
			return err
		}
	}
	sp := obs.Start(c.mon, "recovery", "v0")

	mPath := filepath.Join(c.dataDir, manifestName)
	raw, err := os.ReadFile(mPath)
	if os.IsNotExist(err) {
		return c.initFreshDir(sp)
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("vertica: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("vertica: manifest version %d, this build reads version %d", m.Version, manifestVersion)
	}

	// Restore membership: grow the node slice to every slot the manifest
	// knows about and set the catalog's active ring — every node the manifest
	// does not list as removed — before any table is rebuilt. Nodes off the
	// ring are marked REMOVED below, once replay has had its say.
	if err := c.growNodes(m.Nodes); err != nil {
		return err
	}
	ring := make([]int, c.NumNodes())
	for i := range ring {
		ring[i] = i
	}
	for _, id := range m.Removed {
		ring = rebalance.RingWithout(ring, id)
	}
	c.cat.SetMembership(ring)

	// Restore checkpointed resource pools; the WAL replay below upserts any
	// pool DDL logged since.
	for name, cfg := range m.Pools {
		c.pools.Ensure(name, cfg)
	}

	// Rebuild the catalog, loading each store's containers. Each table is
	// rebuilt on the exact ring its manifest recorded — a crash
	// mid-membership-change leaves tables on different rings, converged after
	// replay.
	for _, tm := range m.Tables {
		if len(tm.Stores) != len(tm.Ring) {
			return fmt.Errorf("vertica: manifest table %q has %d stores for %d ring positions",
				tm.Def.Name, len(tm.Stores), len(tm.Ring))
		}
		tbl, err := c.cat.CreateTableAt(tm.Def, tm.CreatedEpoch, tm.Ring)
		if err != nil {
			return err
		}
		if err := c.loadStores(tbl.Stores, tm.Stores); err != nil {
			return err
		}
		if len(tm.Buddies) != len(tbl.Buddies) {
			return fmt.Errorf("vertica: manifest table %q has %d buddy sets, expected %d",
				tm.Def.Name, len(tm.Buddies), len(tbl.Buddies))
		}
		for r := range tm.Buddies {
			if err := c.loadStores(tbl.Buddies[r], tm.Buddies[r]); err != nil {
				return err
			}
		}
	}
	for _, vm := range m.Views {
		if err := c.cat.CreateView(vm.Name, vm.SQL); err != nil {
			return err
		}
	}
	c.txm.SetLastEpoch(m.DurableEpoch)
	c.walSeq = m.WALSeq
	c.nextDiskID.Store(m.NextDiskID)

	// Replay the log on top of the checkpointed state. Recover truncates any
	// torn tail (a crash mid-append), so the reopened log appends after the
	// last intact record.
	walPath := filepath.Join(c.dataDir, m.WALFile)
	records, err := wal.Recover(walPath)
	if err != nil {
		return err
	}
	replayed, dropped, err := c.replay(records)
	if err != nil {
		return err
	}
	c.mon.Add("recovery.replayed_records", int64(replayed))
	c.mon.Add("recovery.dropped_txns", int64(dropped))

	// Converge layouts: a crash mid-membership-change logged the new ring
	// (opAddNode/opRemoveNode) but may not have rebalanced every table onto
	// it. Finishing the moves here is deterministic — same committed
	// contents, same target ring — and needs no WAL record: a second crash
	// before the next checkpoint just converges again.
	target := c.cat.Ring()
	for _, tbl := range c.cat.Tables() {
		if rebalance.RingsEqual(tbl.Ring, target) {
			continue
		}
		if err := c.applyDDL(opRebalance, ddlPayload{Name: tbl.Def.Name, Ring: target}, false); err != nil {
			return fmt.Errorf("vertica: converging table %q after crash: %w", tbl.Def.Name, err)
		}
		c.mon.Add("recovery.rebalanced_tables", 1)
	}
	c.retireOffRing()

	l, err := c.openWAL(walPath)
	if err != nil {
		return err
	}
	c.attachWAL(l)
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("epoch %d, %d records replayed", c.txm.LastEpoch(), replayed))
		sp.End(nil)
	}
	return nil
}

// initFreshDir lays down the durable skeleton of an empty cluster: a new WAL
// with a checkpoint record at epoch 1, then the first manifest.
func (c *Cluster) initFreshDir(sp *obs.ActiveSpan) error {
	c.walSeq = 1
	c.nextDiskID.Store(1)
	walFile := fmt.Sprintf("wal-%d.log", c.walSeq)
	l, err := c.openWAL(filepath.Join(c.dataDir, walFile))
	if err != nil {
		return err
	}
	m := manifest{
		Version:      manifestVersion,
		DurableEpoch: c.txm.LastEpoch(),
		WALFile:      walFile,
		WALSeq:       c.walSeq,
		NextDiskID:   c.nextDiskID.Load(),
	}
	err = l.Append(wal.Record{Type: wal.RecCheckpoint, Epoch: m.DurableEpoch})
	if err == nil {
		err = l.Sync()
	}
	if err == nil {
		err = c.writeManifest(&m)
	}
	if err != nil {
		l.Close()
		return err
	}
	c.attachWAL(l)
	if sp != nil {
		sp.SetDetail("fresh data directory")
		sp.End(nil)
	}
	return nil
}

// openWAL opens the log at path with the byte/fsync counters and the
// WAL_FSYNC_STALL event wired, before anything else can reach it: a
// checkpoint's successor log takes forwarded appends as soon as it is sealed
// in, so its hooks cannot be set after that. Every record and fsync of the
// file counts, the checkpoint's own included.
func (c *Cluster) openWAL(path string) (*wal.Log, error) {
	l, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	l.OnWrite = func(n int64) {
		c.walBytes.Add(n)
		c.mon.Add("wal.bytes", n)
		c.mon.Add("wal.records", 1)
	}
	l.OnSync = func(d time.Duration) {
		c.mon.Add("wal.fsyncs", 1)
		if d >= walFsyncStall {
			c.mon.Event(obs.Event{
				Name: obs.EvWALFsyncStall, Node: "v0",
				Detail:    "WAL fsync exceeded stall threshold",
				Value:     d.Microseconds(),
				Threshold: walFsyncStall.Microseconds(),
			})
		}
	}
	return l, nil
}

// attachWAL installs l as the cluster's current log and the transaction
// manager's commit log.
func (c *Cluster) attachWAL(l *wal.Log) {
	c.walMu.Lock()
	c.wlog = l
	c.walMu.Unlock()
	c.txm.SetCommitLog(l)
}

// loadStores attaches each manifest store's container files.
func (c *Cluster) loadStores(stores []*storage.Store, sms []storeManifest) error {
	if len(sms) != len(stores) {
		return fmt.Errorf("vertica: manifest store count %d, expected %d", len(sms), len(stores))
	}
	for i, sm := range sms {
		for _, ref := range sm.Containers {
			data, err := os.ReadFile(filepath.Join(c.dataDir, ref))
			if err != nil {
				return fmt.Errorf("vertica: loading container %s: %w", ref, err)
			}
			cont, err := storage.UnmarshalContainer(data)
			if err != nil {
				return fmt.Errorf("vertica: loading container %s: %w", ref, err)
			}
			if err := stores[i].AttachContainer(cont); err != nil {
				return fmt.Errorf("vertica: loading container %s: %w", ref, err)
			}
			cont.SetDiskRef(ref)
		}
	}
	return nil
}

// txnEffects tracks which stores a replayed transaction touched, so its
// commit (rebase) or disappearance (drop) hits exactly those stores.
type txnEffects struct {
	inserted map[*storage.Store]bool
	deleted  map[*storage.Store]bool
}

// discard drops the transaction's provisional writes: what an abort record
// and a missing commit record both mean.
func (e *txnEffects) discard(tag uint64) {
	for st := range e.inserted {
		st.DropInserts(tag)
	}
	for st := range e.deleted {
		st.ClearDeletes(tag)
	}
}

// replay applies WAL records in order: inserts and deletes re-execute under
// their original provisional tags, commits rebase them onto their recorded
// epochs, aborts and still-open tags are discarded. DDL applies immediately,
// mirroring the engine (commit hooks are not rolled back). Returns the
// number of records applied and the number of unfinished transactions
// dropped.
func (c *Cluster) replay(records []wal.Record) (replayed, dropped int, err error) {
	open := make(map[uint64]*txnEffects)
	var maxTag uint64
	effects := func(tag uint64) *txnEffects {
		e, ok := open[tag]
		if !ok {
			e = &txnEffects{inserted: make(map[*storage.Store]bool), deleted: make(map[*storage.Store]bool)}
			open[tag] = e
		}
		return e
	}
	for _, rec := range records {
		if rec.Tag > maxTag {
			maxTag = rec.Tag
		}
		switch rec.Type {
		case wal.RecInsert:
			tbl, ok := c.cat.Table(rec.Table)
			if !ok {
				return replayed, dropped, fmt.Errorf("vertica: replay: insert into unknown table %q", rec.Table)
			}
			_, cols, n, derr := storage.DecodeColumns(rec.Rows, math.MaxInt32)
			if derr != nil {
				return replayed, dropped, fmt.Errorf("vertica: replay: %w", derr)
			}
			if n == 0 {
				break // logInsert writes no empty record; one would carry no vectors to route
			}
			e := effects(rec.Tag)
			block := []*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(n)}}
			werr := tbl.Place(block, storage.HashBatches(block, tbl.SegIdx), nil, func(st *storage.Store, _ int, cs []*storage.ROSContainer, _ []uint64) error {
				e.inserted[st] = true
				st.Attach(cs, rec.Tag, nil)
				return nil
			})
			if werr != nil {
				return replayed, dropped, fmt.Errorf("vertica: replay: insert into %q: %w", rec.Table, werr)
			}
		case wal.RecDelete:
			tbl, ok := c.cat.Table(rec.Table)
			if !ok {
				return replayed, dropped, fmt.Errorf("vertica: replay: delete from unknown table %q", rec.Table)
			}
			_, cols, n, derr := storage.DecodeColumns(rec.Rows, math.MaxInt32)
			if derr != nil {
				return replayed, dropped, fmt.Errorf("vertica: replay: %w", derr)
			}
			keys := make(map[string]bool, n)
			var key []byte
			for i := 0; i < n; i++ {
				key = appendRowKey(key[:0], cols, i)
				keys[string(key)] = true
			}
			vis := storage.Visibility{Epoch: rec.Epoch, Tag: rec.Tag}
			e := effects(rec.Tag)
			for _, st := range allStores(tbl) {
				// The statement's selection again, by equality: each batch
				// narrows to the rows that were logged, into a vector of its
				// own (b.Sel may be the shared identity), and is marked.
				var merr error
				serr := st.ScanBatches(vis, fullRing(), func(b *storage.Batch) bool {
					var keep []int32
					for _, i := range b.Sel {
						if key = appendRowKey(key[:0], b.Cols, int(i)); keys[string(key)] {
							keep = append(keep, i)
						}
					}
					b.Sel = keep
					_, merr = st.MarkDeleted(b, rec.Tag)
					return merr == nil
				})
				if err := errors.Join(merr, serr); err != nil {
					return replayed, dropped, fmt.Errorf("vertica: replay: delete from %q: %w", rec.Table, err)
				}
				e.deleted[st] = true
			}
		case wal.RecCommit:
			if e, ok := open[rec.Tag]; ok {
				for st := range e.inserted {
					st.RebaseInserts(rec.Tag, rec.Epoch)
				}
				for st := range e.deleted {
					st.RebaseDeletes(rec.Tag, rec.Epoch)
				}
				delete(open, rec.Tag)
			}
			c.txm.SetLastEpoch(rec.Epoch)
		case wal.RecAbort:
			if e, ok := open[rec.Tag]; ok {
				e.discard(rec.Tag)
				delete(open, rec.Tag)
			}
		case wal.RecDDL:
			if derr := c.replayDDL(rec); derr != nil {
				return replayed, dropped, derr
			}
		case wal.RecCheckpoint:
			if rec.Epoch > c.txm.LastEpoch() {
				c.txm.SetLastEpoch(rec.Epoch)
			}
		}
		replayed++
	}
	// Transactions with no commit record did not happen: drop their
	// provisional writes exactly as an abort would.
	for tag, e := range open {
		e.discard(tag)
		dropped++
	}
	// Never reissue a tag that appears in the surviving log: a reused tag
	// would fuse a dead transaction's replayed records with a live one after
	// a second crash.
	if maxTag > 0 {
		c.txm.SetNextTag(maxTag + 1)
	}
	return replayed, dropped, nil
}

func (c *Cluster) replayDDL(rec wal.Record) error {
	var p ddlPayload
	if err := json.Unmarshal(rec.DDL, &p); err != nil {
		return fmt.Errorf("vertica: replay: corrupt DDL record: %w", err)
	}
	return c.applyDDL(rec.Op, p, false)
}

// autoCheckpointWALBytes is how many bytes the WAL may grow by after a
// checkpoint before an autocommit write runs the next one (maybeCheckpoint).
// It bounds the log and its replay, not the container count: every write is a
// container already. It sits above the largest single load fabricperf times
// or sets up: an S2V job logs its rows once, as plain row blocks about as big
// as their 8-byte cells, so the 150 000-row, 11-column s2v_save job writes
// ~13 MiB and the 300 000-row d1 set-up load ~26 MiB, and fabricperf
// checkpoints after each of them itself. No automatic checkpoint then lands
// inside a timed job. The count is the cluster's own (walBytes), not the
// collector's wal.bytes, which reads nothing while the collector is disabled.
const autoCheckpointWALBytes = 64 << 20

// maybeCheckpoint runs a checkpoint once the WAL has grown by more than
// autoCheckpointWALBytes since the last one. Only an autocommit write calls
// it, after its commit, so no transaction of the caller's is open across it.
func (c *Cluster) maybeCheckpoint() {
	if c.durable() && c.walBytes.Load()-c.ckptWALBytes.Load() > autoCheckpointWALBytes {
		_ = c.Checkpoint()
	}
}

// Checkpoint persists every committed container, cuts the WAL over to a fresh
// file (carrying records of still-open transactions), and swaps the
// manifest. Commits are stalled for the duration, so the persisted state is
// exactly the durable epoch the new manifest names. A checkpoint that fails
// leaves the current log live, so later commits still land in the log the
// current manifest names. On a non-durable cluster there is nothing to persist
// and it returns nil. Its span ends with its error on every path: the
// automatic checkpoint discards the error, so the span is its only record.
func (c *Cluster) Checkpoint() (err error) {
	if !c.durable() {
		return nil
	}
	sp := obs.Start(c.mon, "checkpoint", "v0")
	defer func() { sp.End(err) }()
	c.txm.CheckpointLock()
	defer c.txm.CheckpointUnlock()

	walBytes := c.walBytes.Load()
	durableEpoch := c.txm.LastEpoch()

	m := manifest{Version: manifestVersion, DurableEpoch: durableEpoch, Nodes: c.NumNodes()}
	for _, n := range c.nodeList() {
		if n.State() == NodeRemoved {
			m.Removed = append(m.Removed, n.ID)
		}
	}
	for _, ps := range c.pools.List() {
		if ps.Name == pool.GeneralPool {
			continue
		}
		if m.Pools == nil {
			m.Pools = make(map[string]pool.Config)
		}
		m.Pools[ps.Name] = ps.Cfg
	}
	for _, tbl := range c.cat.Tables() {
		tm := tableManifest{Def: tbl.Def, CreatedEpoch: tbl.CreatedEpoch, Ring: tbl.Ring}
		sms, err := c.persistStores(tbl.Stores, tbl.Ring, tbl.Def.Name)
		if err != nil {
			return err
		}
		tm.Stores = sms
		for _, reps := range tbl.Buddies {
			bms, err := c.persistStores(reps, tbl.Ring, tbl.Def.Name)
			if err != nil {
				return err
			}
			tm.Buddies = append(tm.Buddies, bms)
		}
		m.Tables = append(m.Tables, tm)
	}
	for _, v := range c.cat.Views() {
		m.Views = append(m.Views, viewManifest{Name: v.Name, SQL: v.SelectSQL})
	}

	// Cut the WAL over: new file with a checkpoint record, carry pending
	// records, then redirect appenders. Commits cannot race this — the
	// commit lock is held — and other appends wait on the old log's lock
	// while the seal publishes the manifest naming the new file.
	newSeq := c.walSeq + 1
	newFile := fmt.Sprintf("wal-%d.log", newSeq)
	newPath := filepath.Join(c.dataDir, newFile)
	// A checkpoint that crashed after creating its new log but before the
	// manifest swap leaves a stale file under this name; it was never
	// referenced, so clear it rather than appending after its records.
	_ = os.Remove(newPath)
	newLog, err := c.openWAL(newPath)
	if err != nil {
		return err
	}
	m.WALFile = newFile
	m.WALSeq = newSeq
	m.NextDiskID = c.nextDiskID.Load()
	publish := func() error { return c.writeManifest(&m) }
	old := c.curWAL()
	switch err = newLog.Append(wal.Record{Type: wal.RecCheckpoint, Epoch: durableEpoch}); {
	case err != nil:
	case old != nil:
		// The seal forwards later appends into the new file only once the
		// manifest naming it is durable; until then the old log stays live.
		err = old.Seal(newLog, publish)
	default: // a closed cluster has no log to seal
		if err = newLog.Sync(); err == nil {
			err = publish()
		}
	}
	if err != nil {
		// Not the live tail: nothing forwards to it. A file left behind is
		// cleared by the next checkpoint, which reuses its name.
		newLog.Close()
		_ = os.Remove(newPath)
		return err
	}
	oldFile := fmt.Sprintf("wal-%d.log", c.walSeq)
	c.walSeq = newSeq
	c.attachWAL(newLog)
	if old != nil {
		_ = old.Close()
	}
	c.removeStaleFiles(&m, oldFile)
	c.ckptWALBytes.Store(walBytes)
	sp.SetDetail(fmt.Sprintf("epoch %d", durableEpoch))
	return nil
}

// persistStores writes each store's dirty/new committed containers, returning
// the manifest entries. Containers are never rewritten in place: a changed
// container gets a fresh file, and the old one is removed only after the new
// manifest is durable. Files land under the
// node-<id> directory of the node owning each ring position — node IDs, not
// positions, so a table whose ring lags the membership ring still files its
// data under the right host.
func (c *Cluster) persistStores(stores []*storage.Store, ring []int, table string) ([]storeManifest, error) {
	if len(ring) != len(stores) {
		return nil, fmt.Errorf("vertica: persisting %s: %d stores for %d ring positions", table, len(stores), len(ring))
	}
	out := make([]storeManifest, len(stores))
	for i, st := range stores {
		for _, cont := range st.Containers() {
			if cont.StartEpoch() >= storage.ProvisionalBase {
				continue // uncommitted: the WAL carries it
			}
			ref, dirty := cont.DiskRef()
			if ref == "" || dirty {
				data, err := storage.MarshalContainer(cont)
				if err != nil {
					return nil, fmt.Errorf("vertica: persisting %s container: %w", table, err)
				}
				newRef := filepath.Join(fmt.Sprintf("node-%d", ring[i]), fmt.Sprintf("c-%d.ros", c.nextDiskID.Add(1)))
				if err := framelog.WriteFileAtomic(filepath.Join(c.dataDir, newRef), data); err != nil {
					return nil, err
				}
				cont.SetDiskRef(newRef)
				ref = newRef
				c.mon.Add("checkpoint.containers_written", 1)
			}
			out[i].Containers = append(out[i].Containers, ref)
		}
	}
	return out, nil
}

func (c *Cluster) writeManifest(m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return framelog.WriteFileAtomic(filepath.Join(c.dataDir, manifestName), data)
}

// removeStaleFiles deletes every data file the new manifest no longer
// references (rewritten containers, dropped tables' files, the sealed WAL).
// Deletion failures are ignored: stale files are garbage, not corruption,
// and the next checkpoint retries.
func (c *Cluster) removeStaleFiles(m *manifest, oldWAL string) {
	live := map[string]bool{m.WALFile: true, manifestName: true}
	for _, tm := range m.Tables {
		for _, sms := range append([][]storeManifest{tm.Stores}, tm.Buddies...) {
			for _, sm := range sms {
				for _, ref := range sm.Containers {
					live[ref] = true
				}
			}
		}
	}
	var stale []string
	if oldWAL != "" && oldWAL != m.WALFile {
		stale = append(stale, oldWAL)
	}
	for i := 0; i < c.NumNodes(); i++ {
		dir := fmt.Sprintf("node-%d", i)
		ents, err := os.ReadDir(filepath.Join(c.dataDir, dir))
		if err != nil {
			continue
		}
		for _, e := range ents {
			ref := filepath.Join(dir, e.Name())
			if !live[ref] {
				stale = append(stale, ref)
			}
		}
	}
	sort.Strings(stale)
	for _, ref := range stale {
		_ = os.Remove(filepath.Join(c.dataDir, ref))
	}
}
