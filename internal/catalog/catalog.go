// Package catalog implements the cluster-wide metadata store: table
// definitions with segmentation layout, views, and the atomic DDL operations
// (create / drop / rename) the S2V commit protocol depends on (§3.2.1 phase
// 5: overwrite mode commits by atomically renaming the staging table to the
// target table).
//
// The segmentation layout — which node owns which contiguous hash range — is
// exactly the information the V2S connector queries from the system catalog
// to formulate node-local partition queries (§3.1.2).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// TableDef is the user-visible definition of a table.
type TableDef struct {
	Name   string
	Schema types.Schema
	// SegCols are the SEGMENTED BY HASH(...) columns. Empty with
	// Segmented=true means "segment by all columns" (the engine default);
	// Segmented=false means an unsegmented table, replicated on every node.
	SegCols   []string
	Segmented bool
	// KSafety is the number of buddy replicas kept for segmented tables.
	KSafety int
	// Temp marks connector-internal temporary tables (the S2V staging and
	// status tables), excluded from user-facing listings.
	Temp bool
}

// Table is a live table: its definition plus its Layout, the stores holding
// its rows.
type Table struct {
	Def    TableDef
	SegIdx []int // schema indexes of the segmentation columns
	*Layout

	CreatedEpoch uint64
}

// RowHash computes the segmentation hash of a row of this table.
func (t *Table) RowHash(r types.Row) uint32 {
	return vhash.HashRow(r, t.SegIdx)
}

// View is a named stored query. The engine re-plans the definition at query
// time; V2S loads views by wrapping them in synthetic-hash partition
// predicates (§3.1.1: views enable join/aggregation pushdown).
type View struct {
	Name      string
	SelectSQL string
}

// Catalog is the cluster metadata store.
type Catalog struct {
	mu     sync.RWMutex
	ring   []int // active member node IDs in ring order
	tables map[string]*Table
	views  map[string]*View
}

// New creates a catalog for a cluster of numNodes nodes, with the initial
// membership ring [0..numNodes-1].
func New(numNodes int) *Catalog {
	ring := make([]int, numNodes)
	for i := range ring {
		ring[i] = i
	}
	return &Catalog{
		ring:   ring,
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
	}
}

// NumNodes returns the current active member count.
func (c *Catalog) NumNodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ring)
}

// Ring returns a copy of the current membership ring: the node IDs new tables
// are laid out across, in ring order.
func (c *Catalog) Ring() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]int(nil), c.ring...)
}

// SetMembership replaces the membership ring used for new tables. Existing
// tables keep their own rings until rebalanced (SwapLayout).
func (c *Catalog) SetMembership(ring []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring = append([]int(nil), ring...)
}

func key(name string) string { return strings.ToLower(name) }

// CreateTable creates a table on the current membership ring, resolving the
// segmentation columns and allocating per-position stores. It fails if a
// table or view with the name exists.
func (c *Catalog) CreateTable(def TableDef, epoch uint64) (*Table, error) {
	return c.CreateTableAt(def, epoch, nil)
}

// CreateTableAt creates a table on an explicit ring (nil = the current
// membership ring). Durable recovery uses the explicit form to rebuild a
// table that crashed mid-rebalance on the exact ring its manifest recorded.
func (c *Catalog) CreateTableAt(def TableDef, epoch uint64, ring []int) (*Table, error) {
	segIdx := make([]int, 0, len(def.SegCols))
	for _, col := range def.SegCols {
		i := def.Schema.ColIndex(col)
		if i < 0 {
			return nil, fmt.Errorf("catalog: segmentation column %q not in schema", col)
		}
		segIdx = append(segIdx, i)
	}
	if ring == nil {
		ring = c.Ring()
	}
	if def.KSafety < 0 || def.KSafety >= len(ring) {
		return nil, fmt.Errorf("catalog: k-safety %d invalid for %d nodes", def.KSafety, len(ring))
	}
	t := &Table{Def: def, SegIdx: segIdx, Layout: NewLayout(def, segIdx, ring), CreatedEpoch: epoch}

	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(def.Name)
	if _, ok := c.tables[k]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", def.Name)
	}
	if _, ok := c.views[k]; ok {
		return nil, fmt.Errorf("catalog: view %q already exists", def.Name)
	}
	c.tables[k] = t
	return t, nil
}

// SwapLayout atomically replaces a table's layout with a rebalanced one,
// copy-on-write: concurrent readers holding the old *Table keep scanning the
// old (complete, immutable-from-here) stores, while every later lookup sees
// the new layout. The caller serializes against writers by holding the
// table's EXCLUSIVE lock.
func (c *Catalog) SwapLayout(name string, lay *Layout) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	nt := *t
	nt.Layout = lay
	c.tables[key(name)] = &nt
	return &nt, nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	return t, ok
}

// DropTable removes a table. Missing tables are an error unless ifExists.
func (c *Catalog) DropTable(name string, ifExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, k)
	return nil
}

// RenameTable atomically renames a table; the destination must not exist.
// Combined with DropTable under the caller's transaction-level serialization
// this provides S2V's atomic staging→target switch.
func (c *Catalog) RenameTable(oldName, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ok, nk := key(oldName), key(newName)
	t, exists := c.tables[ok]
	if !exists {
		return fmt.Errorf("catalog: table %q does not exist", oldName)
	}
	if _, exists := c.tables[nk]; exists {
		return fmt.Errorf("catalog: table %q already exists", newName)
	}
	if _, exists := c.views[nk]; exists {
		return fmt.Errorf("catalog: view %q already exists", newName)
	}
	delete(c.tables, ok)
	// Copy-on-write: concurrent readers hold *Table pointers (sessions
	// mid-scan); mutating the shared Def would race with them. The stores
	// are shared by reference, so data written through either struct is the
	// same data.
	nt := *t
	nt.Def.Name = newName
	nt.Def.Temp = false
	c.tables[nk] = &nt
	return nil
}

// CreateView registers a view definition.
func (c *Catalog) CreateView(name, selectSQL string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: table %q already exists", name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: view %q already exists", name)
	}
	c.views[k] = &View{Name: name, SelectSQL: selectSQL}
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[key(name)]
	return v, ok
}

// DropView removes a view.
func (c *Catalog) DropView(name string, ifExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.views[k]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("catalog: view %q does not exist", name)
	}
	delete(c.views, k)
	return nil
}

// Tables returns all tables (including temp tables), sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for k := range c.tables {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]*Table, 0, len(names))
	for _, k := range names {
		out = append(out, c.tables[k])
	}
	return out
}

// Views returns all views sorted by name.
func (c *Catalog) Views() []*View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.views))
	for k := range c.views {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]*View, 0, len(names))
	for _, k := range names {
		out = append(out, c.views[k])
	}
	return out
}
