package corpus

// Interleaving-coverage feedback: each confirmed outcome of a directed run
// is one cell — (finding signature, resolution branch). For races the
// branch is the random resolution order ("candidate-first" /
// "postponed-first", §3's coin flip); deadlocks have a single branch;
// atomicity violations are keyed by the interfering statement. A target
// whose campaigns stop producing new cells (and new signatures) has
// plateaued: its schedules keep re-creating outcomes the corpus has
// already seen, which is the adaptive allocator's signal to shift budget
// elsewhere ("Fuzzing at Scale"-style).

// CoverageCell is one (signature, branch) outcome with its hit count.
type CoverageCell struct {
	Sig    Signature `json:"sig"`
	Branch string    `json:"branch"`
	Hits   int64     `json:"hits"`
}

// key identifies the cell.
func (c CoverageCell) key() string { return c.Sig.Canon() + "|" + c.Branch }

// IngestCell folds c, which stands for c.Hits observations of the cell
// (clamped to at least one), into the interleaving-coverage map and reports
// whether the cell is new. It is the one cell fold, for a single sighting
// and a fleet unit's aggregate alike.
func (s *Store) IngestCell(c CoverageCell) (isNew bool) {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hits := max(c.Hits, 1)
	k := c.key()
	if old, ok := s.cells[k]; ok {
		old.Hits += hits
		return false
	}
	c.Hits = hits
	s.cells[k] = &c
	s.cellOrder = append(s.cellOrder, k)
	return true
}

// Coverage returns a snapshot of the interleaving-coverage cells in
// first-observation order.
func (s *Store) Coverage() []CoverageCell {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CoverageCell, 0, len(s.cellOrder))
	for _, k := range s.cellOrder {
		out = append(out, *s.cells[k])
	}
	return out
}

// CoverageLen returns the number of distinct coverage cells.
func (s *Store) CoverageLen() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cellOrder)
}
