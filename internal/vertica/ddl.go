package vertica

import (
	"fmt"

	"vsfabric/internal/catalog"
	"vsfabric/internal/pool"
	"vsfabric/internal/rebalance"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// applyDDL performs one logged operation on the catalog, the pool manager or
// the membership ring. It is the only code that does: statements, deferred
// commit hooks and WAL replay all come here, so a record cannot mean one thing
// to the run that logged it and another to the run that replays it.
//
// strict is a live statement's precondition — CREATE and ALTER of a pool need
// the name free or taken, DROP without IF EXISTS needs its object — and it is
// decided by the same locked catalog or pool call that makes the change, so
// of two racing statements exactly one passes. Commit hooks (validated when
// the statement ran) and replay pass false: a record says how things end up,
// and is safe to repeat over a state that already holds its effect.
func (c *Cluster) applyDDL(op byte, p ddlPayload, strict bool) error {
	switch op {
	case opCreateTable:
		if p.Def == nil {
			return fmt.Errorf("vertica: CREATE TABLE record without definition")
		}
		_, err := c.cat.CreateTable(*p.Def, c.txm.LastEpoch())
		return err
	case opDropTable:
		if err := c.cat.DropTable(p.Name, !strict); err != nil {
			return err
		}
		c.txm.DropTableLock(p.Name)
		return nil
	case opRenameTable:
		return c.cat.RenameTable(p.Name, p.NewName)
	case opCreateView:
		return c.cat.CreateView(p.Name, p.SQL)
	case opDropView:
		return c.cat.DropView(p.Name, !strict)
	case opAddNode:
		if err := c.growNodes(p.Node + 1); err != nil {
			return err
		}
		c.cat.SetMembership(p.Ring)
		return nil
	case opRemoveNode:
		// Only the ring changes here: the node keeps serving as a source
		// until its tables have drained, and is marked REMOVED by RemoveNode
		// (or, after a crash, by openDurable once layouts have converged).
		c.cat.SetMembership(p.Ring)
		return nil
	case opRebalance:
		// Replay and post-crash convergence only: MoveTable is a deterministic
		// function of the table's committed contents and the target ring. The
		// live rebalance swaps in the layout it streamed (membership.go).
		tbl, ok := c.cat.Table(p.Name)
		if !ok {
			return fmt.Errorf("vertica: rebalance of unknown table %q", p.Name)
		}
		if rebalance.RingsEqual(tbl.Ring, p.Ring) {
			return nil
		}
		lay, _, err := rebalance.MoveTable(tbl, p.Ring, nil)
		if err != nil {
			return fmt.Errorf("vertica: rebalancing %q: %w", p.Name, err)
		}
		_, err = c.cat.SwapLayout(p.Name, lay)
		return err
	case opCreatePool, opAlterPool:
		if p.Pool == nil {
			return fmt.Errorf("vertica: pool record without config")
		}
		var err error
		switch {
		case !strict:
			c.pools.Ensure(p.Name, *p.Pool) // the log's last word on a pool wins
		case op == opCreatePool:
			_, err = c.pools.Create(p.Name, *p.Pool)
		default:
			err = c.pools.Alter(p.Name, *p.Pool)
		}
		if err != nil {
			return fmt.Errorf("vertica: %w: %s", err, p.Name)
		}
		return nil
	case opDropPool:
		if err := c.pools.Drop(p.Name); err != nil && (strict || err != pool.ErrNotFound) {
			return fmt.Errorf("vertica: %w: %s", err, p.Name)
		}
		return nil
	default:
		return fmt.Errorf("vertica: unknown DDL opcode %d", op)
	}
}

// runDDL applies a statement's catalog or pool operation and then logs it —
// apply first, so the log never names an operation that failed; a crash
// between the two loses only a statement that was never acknowledged. The
// pair is one step under ddlMu: replay meets racing statements in the order
// they took effect. (Membership operations log first: see membership.go.)
func (c *Cluster) runDDL(op byte, p ddlPayload, strict bool) (*Result, error) {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	if err := c.applyDDL(op, p, strict); err != nil {
		return nil, err
	}
	if err := c.logDDL(op, p); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// runDDLAtCommit is runDDL for the two transactional operations, DROP TABLE
// and RENAME: inside an explicit transaction they run in a commit hook, so
// S2V's phase-5 "drop target, rename staging" pair applies atomically with
// its conditional status update or not at all. Hooks run exactly once and are
// not rolled back, so the record is logged where it is applied.
func (s *Session) runDDLAtCommit(op byte, p ddlPayload, strict bool) (*Result, error) {
	if s.tx == nil {
		return s.cluster.runDDL(op, p, strict)
	}
	s.tx.OnCommit(func() error {
		_, err := s.cluster.runDDL(op, p, false)
		return err
	})
	return &Result{}, nil
}

// executeCreateTable creates a table. Tables default to segmentation over
// all columns, matching Vertica's default of deriving a segmentation
// expression when none is given (§2.1.1).
func (s *Session) executeCreateTable(st *vsql.CreateTable) (*Result, error) {
	var def catalog.TableDef
	if st.Like != "" {
		src, ok := s.cluster.cat.Table(st.Like)
		if !ok {
			return nil, fmt.Errorf("vertica: table %q does not exist", st.Like)
		}
		def = src.Def
		def.Name = st.Name
		def.Temp = st.Temp
	} else {
		var schema types.Schema
		for _, c := range st.Cols {
			schema.Cols = append(schema.Cols, types.Column{Name: c.Name, T: c.Type})
		}
		def = catalog.TableDef{
			Name:      st.Name,
			Schema:    schema,
			Temp:      st.Temp,
			Segmented: !st.Unsegmented,
			SegCols:   st.SegCols,
			KSafety:   st.KSafety,
		}
		if def.KSafety == 0 {
			def.KSafety = s.cluster.cfg.KSafety
		}
		if !def.Segmented {
			def.KSafety = 0
		}
	}
	res, err := s.cluster.runDDL(opCreateTable, ddlPayload{Def: &def}, true)
	if err != nil && st.IfNotExists {
		// The catalog decided: whoever lost the race to create the table
		// finds it there now, which is all IF NOT EXISTS asks for.
		if _, exists := s.cluster.cat.Table(st.Name); exists {
			return &Result{}, nil
		}
	}
	return res, err
}

// executeDropTable drops a table. Inside a transaction existence is validated
// here, up front, because the drop itself waits for commit.
func (s *Session) executeDropTable(st *vsql.DropTable) (*Result, error) {
	if s.tx != nil {
		if _, ok := s.cluster.cat.Table(st.Name); !ok && !st.IfExists {
			return nil, fmt.Errorf("vertica: table %q does not exist", st.Name)
		}
	}
	return s.runDDLAtCommit(opDropTable, ddlPayload{Name: st.Name}, !st.IfExists)
}

func (s *Session) executeCreateView(st *vsql.CreateView) (*Result, error) {
	// Validate the definition by planning it once against empty state.
	if err := s.bindSelectFuncs(st.Stmt); err != nil {
		return nil, err
	}
	return s.cluster.runDDL(opCreateView, ddlPayload{Name: st.Name, SQL: st.SelectSQL}, true)
}

func (s *Session) executeDropView(st *vsql.DropView) (*Result, error) {
	return s.cluster.runDDL(opDropView, ddlPayload{Name: st.Name}, !st.IfExists)
}

// executeRename renames a table (at commit, inside a transaction).
func (s *Session) executeRename(st *vsql.AlterRename) (*Result, error) {
	if _, ok := s.cluster.cat.Table(st.Name); !ok {
		return nil, fmt.Errorf("vertica: table %q does not exist", st.Name)
	}
	return s.runDDLAtCommit(opRenameTable, ddlPayload{Name: st.Name, NewName: st.NewName}, true)
}
