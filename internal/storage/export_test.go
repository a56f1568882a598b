package storage

// Visits returns how many containers the store's RebaseInserts and
// DropInserts have taken from its provisional index. DropInserts' one walk
// of the container list to unlink them is not counted.
func (s *Store) Visits() int64 { return s.visits.Load() }
