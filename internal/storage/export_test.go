package storage

import "fmt"

// Visits returns how many containers the store's commits and aborts have
// taken from its provisional indexes (RebaseInserts, DropInserts,
// RebaseDeletes, ClearDeletes). DropInserts' one walk of the container list to
// unlink them is not counted.
func (s *Store) Visits() int64 { return s.visits.Load() }

// The row reference of versions_test.go and the helpers it needs, for the
// external tests that move containers through catalog and rebalance
// (move_test.go).
type RowVersion = rowVersion

var (
	GatherSchema              = gatherSchema
	WriteRows                 = writeRows
	RandomHistory             = randomHistory
	ExportRowVersions         = exportRowVersions
	RowVersionsOf             = rowVersionsOf
	ContainersFromRowVersions = containersFromRowVersions
	SameContainers            = sameContainers
)

// Validate checks that every container's vectors and hashes hold its row
// count.
func (s *Store) Validate() error {
	for idx, c := range s.snapshot() {
		for j, col := range c.Cols {
			if col.Len() != c.RowCount {
				return fmt.Errorf("storage: container %d column %d has %d rows, want %d", idx, j, col.Len(), c.RowCount)
			}
		}
		if len(c.Hashes) != c.RowCount {
			return fmt.Errorf("storage: container %d has %d hashes, want %d", idx, len(c.Hashes), c.RowCount)
		}
	}
	return nil
}
