package vertica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"vsfabric/internal/avro"
	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/txn"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vhash"
	"vsfabric/internal/vsql"
)

// lockTable acquires the table lock in the given mode and then re-resolves
// the table from the catalog. The re-resolution matters: a concurrent
// rebalance (or DDL) holds the EXCLUSIVE lock while swapping the table's
// layout, so a writer that resolved its *Table before blocking on the lock
// would otherwise write into the orphaned pre-rebalance stores.
func (s *Session) lockTable(tx *txn.Txn, name string, mode txn.LockMode) (*catalog.Table, error) {
	tbl, ok := s.cluster.cat.Table(name)
	if !ok {
		return nil, fmt.Errorf("vertica: table %q does not exist", name)
	}
	if err := tx.Acquire(tbl.Def.Name, mode); err != nil {
		return nil, err
	}
	tbl, ok = s.cluster.cat.Table(name)
	if !ok {
		return nil, fmt.Errorf("vertica: table %q does not exist", name)
	}
	return tbl, nil
}

// writableCheck verifies every replica set of the table still has at least
// one store on a node accepting writes. Without it a statement could be
// acknowledged while an entire segment's writes landed nowhere — an
// unrecoverable loss once the downed replicas rebuild from each other.
func (s *Session) writableCheck(tbl *catalog.Table) error {
next:
	for _, seg := range tbl.Segs(0) {
		for _, rep := range tbl.Replicas(seg) {
			if s.cluster.nodeAcceptsWrites(rep.Node) {
				continue next
			}
		}
		return fmt.Errorf("%w: segment %d of table %q has no writable replica (k-safety exhausted)",
			ErrNodeDown, seg, tbl.Def.Name)
	}
	return nil
}

// writeColumns inserts the n rows held by cols (dense vectors, one per table
// column) under tx and logs them: the one write entry every inserting
// statement but COPY ends in, which enters at appendColumns and logInsert with
// its blocks. It returns appendColumns' shuffle accounting.
func (s *Session) writeColumns(tx *txn.Txn, tbl *catalog.Table, cols []storage.Column, n int) (map[[2]string]float64, error) {
	block := []*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(n)}}
	route, err := s.appendColumns(tx, tbl, block)
	if err != nil {
		return nil, err
	}
	return route, s.logInsert(tx, tbl, block)
}

// appendColumns adds the rows held in blocks (each batch's vectors holding
// exactly the rows it selects) to the table's stores under tx. Each row is
// ring-hashed once, here; segmented tables route each row to its segment's
// node (plus buddy replicas), unsegmented tables replicate to every node;
// Layout.Place builds each segment's containers once and each store attaches
// them. Stores hosted on DOWN (or removed) nodes are skipped — their writes
// land on the surviving replicas and are reconciled when the node recovers —
// but the statement fails up front if any replica set is entirely
// unwritable. A traced
// statement gets back the bytes shuffled from the connected node to each
// other node, for resource accounting; an untraced one gets nil, and nothing
// is weighed.
func (s *Session) appendColumns(tx *txn.Txn, tbl *catalog.Table, blocks []*storage.Batch) (map[[2]string]float64, error) {
	if err := s.writableCheck(tbl); err != nil {
		return nil, err
	}
	var route map[[2]string]float64
	if s.rec != nil {
		route = make(map[[2]string]float64)
	}
	hashes := storage.HashBatches(blocks, tbl.SegIdx)
	err := tbl.Place(blocks, hashes, nil, func(st *storage.Store, nodeID int, cs []*storage.ROSContainer, _ []uint64) error {
		if !s.cluster.nodeAcceptsWrites(nodeID) {
			// The skipped store now lags the committed state; recovery must
			// rebuild it from a replica before its node serves reads again.
			st.MarkStale()
			return nil
		}
		st.Attach(cs, tx.Tag(), nil)
		tx.NoteInsert(st)
		if route != nil && nodeID != s.node.ID {
			for _, c := range cs {
				route[[2]string{s.node.Name, sim.VName(nodeID)}] += float64(batchWireSize(&storage.Batch{Cols: c.Cols, Sel: storage.IdentitySel(c.RowCount)}))
			}
		}
		return nil
	})
	return route, err
}

// executeInsert runs INSERT INTO ... VALUES, the trickle-load path the JDBC
// Default Source baseline uses for saves (§4.7.1).
func (s *Session) executeInsert(ctx context.Context, st *vsql.Insert) (*Result, error) {
	tbl, ok := s.cluster.cat.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("vertica: table %q does not exist", st.Table)
	}
	schema := tbl.Def.Schema
	if st.Select != nil {
		return s.executeInsertSelect(ctx, st, tbl)
	}
	colIdx := make([]int, 0, len(st.Cols))
	if len(st.Cols) == 0 {
		for i := range schema.Cols {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range st.Cols {
			i := schema.ColIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("vertica: no column %q in table %q", c, st.Table)
			}
			colIdx = append(colIdx, i)
		}
	}
	rows := make([]types.Row, 0, len(st.Rows))
	empty := types.Schema{}
	for _, exprs := range st.Rows {
		if len(exprs) != len(colIdx) {
			return nil, fmt.Errorf("vertica: INSERT row has %d values, want %d", len(exprs), len(colIdx))
		}
		row := make(types.Row, schema.NumCols())
		for i, c := range schema.Cols {
			row[i] = types.NullValue(c.T)
		}
		for j, e := range exprs {
			if err := s.cluster.bindFuncs(e); err != nil {
				return nil, err
			}
			v, err := e.Eval(nil, &empty)
			if err != nil {
				return nil, err
			}
			row[colIdx[j]] = v
		}
		rows = append(rows, row)
	}
	// Columnized once, before the transaction: each literal meets its column by
	// types.Coerce, so an integer lands in a FLOAT column and 'abc' in none.
	cols, err := storage.ColumnsFromRows(rows, schema)
	if err != nil {
		return nil, fmt.Errorf("vertica: INSERT INTO %s: %w", st.Table, err)
	}

	return s.writeStmt(func(tx *txn.Txn) (*Result, error) {
		tbl, err := s.lockTable(tx, tbl.Def.Name, txn.LockInsert)
		if err != nil {
			return nil, err
		}
		route, err := s.writeColumns(tx, tbl, cols, len(rows))
		if err != nil {
			return nil, err
		}
		if s.rec != nil {
			wire := batchWireSize(&storage.Batch{Cols: cols, Sel: storage.IdentitySel(len(rows))})
			s.rec.Add(sim.Event{
				Type:       sim.LoadFlowEv,
				CNode:      s.peer,
				VNode:      s.node.Name,
				WireBytes:  float64(wire + 32*len(rows)), // statement framing
				EncodeKind: sim.CPUCSVFormat,
				ParseKind:  sim.CPUCSVParse,
				InsertRows: float64(len(rows)),
				ResultRows: float64(len(rows)),
				Route:      route,
			})
		}
		return &Result{RowsAffected: int64(len(rows))}, nil
	})
}

// executeInsertSelect runs INSERT INTO t SELECT ... entirely server-side —
// the operation S2V append mode uses to commit the staging table into the
// target under one atomic transaction (§3.2.1 phase 5, §5's discussion of
// append-mode cost).
func (s *Session) executeInsertSelect(ctx context.Context, st *vsql.Insert, tbl *catalog.Table) (*Result, error) {
	if len(st.Cols) > 0 {
		return nil, fmt.Errorf("vertica: INSERT ... SELECT does not support a column list")
	}
	res, err := s.executeSelect(ctx, st.Select)
	if err != nil {
		return nil, err
	}
	schema := tbl.Def.Schema
	if len(res.Schema.Cols) != schema.NumCols() {
		return nil, fmt.Errorf("vertica: INSERT ... SELECT produces %d columns, table has %d",
			len(res.Schema.Cols), schema.NumCols())
	}
	cols, n, err := insertSelectColumns(res, schema)
	if err != nil {
		return nil, err
	}
	return s.writeStmt(func(tx *txn.Txn) (*Result, error) {
		tbl, err := s.lockTable(tx, tbl.Def.Name, txn.LockInsert)
		if err != nil {
			return nil, err
		}
		if _, err := s.writeColumns(tx, tbl, cols, n); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: int64(n)}, nil
	})
}

// insertSelectColumns shapes a SELECT's result for insertion under schema,
// vector to vector. Columns whose kinds are already the table's (S2V append's
// INSERT INTO target SELECT * FROM staging is exactly that) are strung
// together as they are; a column of another kind is cast cell by cell into a
// vector of the target's (types.Coerce, in storage.Builder.Append).
func insertSelectColumns(res *Result, schema types.Schema) ([]storage.Column, int, error) {
	cols, n, err := storage.DenseColumns(res.Schema, res.Batches)
	for j, c := range cols {
		if err != nil || c.Type() == schema.Cols[j].T {
			continue
		}
		b := storage.NewBuilder(schema.Cols[j].T)
		b.Grow(n)
		for i := 0; i < n && err == nil; i++ {
			err = b.Append(c.Get(i))
		}
		cols[j] = b.Build()
	}
	return cols, n, err
}

// executeUpdate runs UPDATE under an EXCLUSIVE table lock: matching visible
// rows are deleted and re-inserted with the assignments applied (re-routed
// if a segmentation column changed). The affected-row count is what the S2V
// protocol's conditional check-and-set steps branch on (§3.2.1).
func (s *Session) executeUpdate(ctx context.Context, st *vsql.Update) (*Result, error) {
	tbl, ok := s.cluster.cat.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("vertica: table %q does not exist", st.Table)
	}
	schema := tbl.Def.Schema
	// The re-insert is the matched rows' vectors with the assigned columns
	// swapped for new ones: the SET list is a computed select list over the
	// matched batches, typed by the columns it assigns.
	var set types.Schema
	setIdx := make([]int, len(st.Set))
	proj := make([]projCol, len(st.Set))
	for i, sc := range st.Set {
		if setIdx[i] = schema.ColIndex(sc.Col); setIdx[i] < 0 {
			return nil, fmt.Errorf("vertica: no column %q in table %q", sc.Col, st.Table)
		}
		if err := s.cluster.bindFuncs(sc.Expr); err != nil {
			return nil, err
		}
		vec, _ := vexec.CompileExpr(sc.Expr, schema)
		set.Cols, proj[i] = append(set.Cols, schema.Cols[setIdx[i]]), projCol{vec: vec}
	}
	assign := func(cols []storage.Column, matched []*storage.Batch) ([]storage.Column, error) {
		assigned, err := projectBatches(ctx, set, proj, matched)
		var setCols []storage.Column
		if err == nil {
			setCols, _, err = storage.DenseColumns(set, assigned)
		}
		if err != nil {
			return nil, err
		}
		updated := slices.Clone(cols)
		for i, idx := range setIdx {
			updated[idx] = setCols[i]
		}
		return updated, nil
	}
	return s.deleteStmt(st.Table, st.Where, assign)
}

// executeDelete runs DELETE FROM under an EXCLUSIVE lock.
func (s *Session) executeDelete(st *vsql.Delete) (*Result, error) {
	return s.deleteStmt(st.Table, st.Where, nil)
}

// deleteStmt is DELETE, and the DELETE an UPDATE starts with. It selects
// before it marks: the WHERE clause, compiled once the way a scan node
// compiles it (typed kernels, zone-map pruning, an interpreted residual), runs
// over every store that takes the statement's writes, so a predicate that
// fails on any visible row fails the statement with no row marked; only then
// is each store handed back its own batches to mark. The matched rows — each
// segment's, from the replica a read would use — are logged as vectors, so
// replay re-applies the delete exactly under the same snapshot, and with
// reinsert non-nil (UPDATE) what it makes of them is written back through the
// insert entry.
func (s *Session) deleteStmt(table string, where expr.Expr, reinsert func([]storage.Column, []*storage.Batch) ([]storage.Column, error)) (*Result, error) {
	if where != nil {
		if err := s.cluster.bindFuncs(where); err != nil {
			return nil, err
		}
	}
	return s.writeStmt(func(tx *txn.Txn) (*Result, error) {
		tbl, err := s.lockTable(tx, table, txn.LockExclusive)
		if err != nil {
			return nil, err
		}
		if err := s.writableCheck(tbl); err != nil {
			return nil, err
		}
		vis := tx.Vis()
		found, matched, err := s.selectRows(tbl, where, vis)
		if err != nil {
			return nil, err
		}
		cols, n, err := storage.DenseColumns(tbl.Def.Schema, matched)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			var updated []storage.Column
			if reinsert != nil {
				if updated, err = reinsert(cols, matched); err != nil {
					return nil, err
				}
			}
			// Stores on nodes taking no writes were not selected on; they are
			// reconciled at recovery.
			for _, st := range allStores(tbl) {
				batches, selected := found[st]
				if !selected {
					st.MarkStale()
					continue
				}
				for _, b := range batches {
					if _, err := st.MarkDeleted(b, tx.Tag()); err != nil {
						return nil, err
					}
				}
				tx.NoteDelete(st)
			}
			if err := s.logDelete(tx, tbl, cols, n, vis.Epoch); err != nil {
				return nil, err
			}
			if reinsert != nil {
				if _, err := s.writeColumns(tx, tbl, updated, n); err != nil {
					return nil, err
				}
			}
		}
		s.rec.Fixed(sim.FixedStatusOp)
		return &Result{RowsAffected: int64(n)}, nil
	})
}

// selectRows runs a DELETE or UPDATE's WHERE clause over every store of the
// table on a node accepting writes — primaries, buddies, all replicas of an
// unsegmented table — and returns, per store, the batches narrowed to the rows
// it selects there (an entry, possibly empty, for every store it ran on), plus
// the matching rows once: each segment's from the replica serving its reads. It
// charges no simulated scan or shuffle: the statement's cost stays its fixed
// status-op event. A row never moves once written and the caller's EXCLUSIVE
// lock keeps every other writer out, so the batches still name their rows
// when they are handed to MarkDeleted.
func (s *Session) selectRows(tbl *catalog.Table, where expr.Expr, vis storage.Visibility) (found map[*storage.Store][]*storage.Batch, matched []*storage.Batch, err error) {
	pred := vexec.Compile(where, tbl.Def.Schema, tbl.SegIdx)
	found = make(map[*storage.Store][]*storage.Batch)
	for _, seg := range tbl.Segs(0) {
		for _, rep := range tbl.Replicas(seg) {
			if !s.cluster.nodeAcceptsWrites(rep.Node) {
				continue
			}
			st := rep.Store
			batches := []*storage.Batch{}
			var ferr error
			err := st.ScanContainers(vis, fullRing(), s.pruneFunc(pred, &segResult{}), func(b *storage.Batch) bool {
				if ferr = pred.FilterBatch(b); len(b.Sel) > 0 {
					batches = append(batches, b)
				}
				return ferr == nil
			})
			if err = errors.Join(ferr, err); err != nil {
				return nil, nil, err
			}
			found[st] = batches
		}
	}
	for _, pos := range tbl.Segs(s.localPos(tbl)) {
		st, _, err := s.replicaFor(tbl, pos)
		if err != nil {
			return nil, nil, err
		}
		batches, selected := found[st]
		if !selected {
			return nil, nil, fmt.Errorf("%w: the replica serving segment %d of table %q changed state mid-statement", ErrNodeDown, pos, tbl.Def.Name)
		}
		matched = append(matched, batches...)
	}
	return found, matched, nil
}

// executeCopyStream bulk-loads rows arriving on the client stream (the
// VerticaCopyStream path S2V uses, §3.2.2). It wraps the load in the
// engine-side "copy" span that backs v_monitor.load_streams, parented under
// the context's trace (an S2V phase 1, possibly remote); the load's three
// stages run one after the other as its children copy.decode, copy.append
// and copy.wal.
func (s *Session) executeCopyStream(ctx context.Context, cp *vsql.Copy, r io.Reader) (*Result, error) {
	sp := obs.StartChild(ctx, s.cluster.mon, "copy", s.node.Name)
	sp.SetPeer(s.peer)
	sp.SetDetail(cp.Table)
	counted := &countingReader{r: r}
	res, err := s.copyStream(obs.WithSpan(ctx, sp), cp, counted)
	sp.AddBytes(counted.n)
	if res != nil && res.Copy != nil {
		sp.AddRows(res.Copy.Loaded)
		sp.AddRejected(res.Copy.Rejected)
	}
	sp.End(err)
	return res, err
}

// copyStage runs one stage of a COPY under a child span of ctx's copy span.
func (s *Session) copyStage(ctx context.Context, name string, stage func() error) error {
	sp := obs.StartChild(ctx, s.cluster.mon, name, s.node.Name)
	err := stage()
	sp.End(err)
	return err
}

// copyStream parses and writes the rows of one COPY ... FROM STDIN load. Avro
// blocks decode straight into column vectors and stay those blocks until each
// store's share is cut out of them and the WAL record is written over them;
// CSV lines parse into rows, columnized once into one block before the same
// write entry.
func (s *Session) copyStream(ctx context.Context, cp *vsql.Copy, counted *countingReader) (*Result, error) {
	if s.node.Down() {
		return nil, fmt.Errorf("%w: node %d went down", ErrNodeDown, s.node.ID)
	}
	s.rec.Fixed(sim.FixedQuery)
	tbl, ok := s.cluster.cat.Table(cp.Table)
	if !ok {
		return nil, fmt.Errorf("vertica: table %q does not exist", cp.Table)
	}
	var (
		blocks                []*storage.Batch
		loaded                int
		rejected              []string
		rejectedCount         int64
		encodeKind, parseKind = sim.CPUCSVFormat, sim.CPUCSVParse
	)
	err := s.copyStage(ctx, "copy.decode", func() (err error) {
		switch cp.Format {
		case vsql.CopyAvro:
			encodeKind, parseKind = sim.CPUAvroEncode, sim.CPUCopyParse
			blocks, loaded, err = decodeAvro(counted, tbl.Def.Schema)
		case vsql.CopyCSV:
			var rows []types.Row
			if rows, rejected, rejectedCount, err = parseCSV(counted, tbl.Def.Schema); err == nil {
				var cols []storage.Column
				cols, err = storage.ColumnsFromRows(rows, tbl.Def.Schema)
				loaded = len(rows)
				blocks = []*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(loaded)}}
			}
		default:
			err = fmt.Errorf("unsupported format %q", cp.Format)
		}
		if err != nil {
			return fmt.Errorf("vertica: COPY: %w", err)
		}
		if rejectedCount > cp.RejectMax {
			return fmt.Errorf("vertica: COPY: %d rows rejected exceeds REJECTMAX %d (sample: %v)",
				rejectedCount, cp.RejectMax, rejected)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	return s.writeStmt(func(tx *txn.Txn) (*Result, error) {
		tbl, err := s.lockTable(tx, tbl.Def.Name, txn.LockInsert)
		if err != nil {
			return nil, err
		}
		var route map[[2]string]float64
		if err := s.copyStage(ctx, "copy.append", func() (err error) {
			route, err = s.appendColumns(tx, tbl, blocks)
			return err
		}); err != nil {
			return nil, err
		}
		if err := s.copyStage(ctx, "copy.wal", func() error {
			return s.logInsert(tx, tbl, blocks)
		}); err != nil {
			return nil, err
		}
		s.rec.Add(sim.Event{
			Type:       sim.LoadFlowEv,
			CNode:      s.peer,
			VNode:      s.node.Name,
			WireBytes:  float64(counted.n),
			EncodeKind: encodeKind,
			ParseKind:  parseKind,
			ResultRows: float64(loaded),
			Route:      route,
			Local:      s.copyLocal,
		})
		cr := &CopyResult{Loaded: int64(loaded), Rejected: rejectedCount, RejectedSample: rejected}
		return &Result{RowsAffected: cr.Loaded, Copy: cr}, nil
	})
}

// decodeAvro reads an Avro object container file of the table's schema into
// one batch per block, each of the block's own dense vectors selected whole,
// and counts the rows. The blocks are not strung together: the write path
// cuts each store's share straight out of them.
func decodeAvro(r io.Reader, schema types.Schema) ([]*storage.Batch, int, error) {
	rd, err := avro.NewReader(r)
	if err != nil {
		return nil, 0, err
	}
	defer rd.Close()
	if !rd.Schema().ToTypes().Equal(schema) {
		return nil, 0, fmt.Errorf("Avro schema %v does not match table schema %v", rd.Schema().ToTypes(), schema)
	}
	var blocks []*storage.Batch
	rows := 0
	for {
		cols, n, err := rd.ReadBlock()
		if err == io.EOF {
			return blocks, rows, nil
		}
		if err != nil {
			return nil, 0, err
		}
		blocks = append(blocks, &storage.Batch{Cols: cols, Sel: storage.IdentitySel(n)})
		rows += n
	}
}

// parseCSV reads CSV lines into rows of the schema, counting the lines that
// do not parse and keeping a sample of up to 10 of them with reasons.
func parseCSV(r io.Reader, schema types.Schema) (rows []types.Row, rejected []string, rejectedCount int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		row, err := types.ParseCSV(line, schema, ',')
		if err != nil {
			if len(rejected) < 10 {
				rejected = append(rejected, fmt.Sprintf("%s: %v", truncate(line, 80), err))
			}
			rejectedCount++
			continue
		}
		rows = append(rows, row)
	}
	return rows, rejected, rejectedCount, sc.Err()
}

// executeCopyFile bulk-loads a node-local CSV file — the native parallel
// COPY baseline of §4.7.3.
func (s *Session) executeCopyFile(ctx context.Context, cp *vsql.Copy) (*Result, error) {
	f, err := os.Open(cp.FromPath)
	if err != nil {
		return nil, fmt.Errorf("vertica: COPY: %w", err)
	}
	defer f.Close()
	s.copyLocal = true
	defer func() { s.copyLocal = false }()
	return s.executeCopyStream(ctx, cp, f)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// fullRing is the unconstrained hash range.
func fullRing() vhash.Range { return vhash.Range{Lo: 0, Hi: vhash.RingSize} }
