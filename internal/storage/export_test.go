package storage

// Visits returns how many containers the store's commits and aborts have
// taken from its provisional indexes (RebaseInserts, DropInserts,
// RebaseDeletes, ClearDeletes). DropInserts' one walk of the container list to
// unlink them is not counted.
func (s *Store) Visits() int64 { return s.visits.Load() }
