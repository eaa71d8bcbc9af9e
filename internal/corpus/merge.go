package corpus

// Batch ingestion: the fleet coordinator's side of the merge protocol.
// Workers execute leased trial batches against fresh in-memory stores and
// report their findings and coverage cells back as pre-aggregated batches;
// the coordinator folds those batches into the one authoritative campaign
// store. Folding a batch entry whose Hits counts h
// sightings is equivalent to h sequential Report calls (and likewise for
// coverage-cell hits), so a fleet campaign's corpus — signatures, hit
// counts, session new/known tallies — matches the single-process campaign
// that ran the same trials in the same order.

// Ingest folds one pre-aggregated finding into the store and reports whether
// its signature is new. f.Hits counts the sightings the entry aggregates
// (clamped to at least one); for a known signature the stored entry's Hits
// grow by that many, LastSeenSeed advances and Exceptions are unioned — the
// exact state h sequential Report calls would have left. The session
// new/known counters advance the same way, so dedup-rate metrics are
// batch-order independent.
func (s *Store) Ingest(f Finding) (isNew bool) {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingestLocked(f)
}

func (s *Store) ingestLocked(f Finding) (isNew bool) {
	hits := f.Hits
	if hits < 1 {
		hits = 1
	}
	k := f.Sig.Canon()
	if old, ok := s.byCanon[k]; ok {
		old.Hits += hits
		old.LastSeenSeed = f.LastSeenSeed
		old.Exceptions = mergeSorted(old.Exceptions, f.Exceptions)
		s.knownSigs += hits
		return false
	}
	nf := f
	nf.Hits = hits
	nf.Exceptions = mergeSorted(nil, f.Exceptions)
	s.byCanon[k] = &nf
	s.order = append(s.order, k)
	s.newSigs++
	s.knownSigs += hits - 1
	return true
}

// IngestCell folds one pre-aggregated coverage cell into the interleaving-
// coverage map and reports whether the cell is new. c.Hits (clamped to at
// least one) is the number of Observe calls the entry stands for.
func (s *Store) IngestCell(c CoverageCell) (isNew bool) {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingestCellLocked(c)
}

func (s *Store) ingestCellLocked(c CoverageCell) (isNew bool) {
	hits := c.Hits
	if hits < 1 {
		hits = 1
	}
	k := c.key()
	if old, ok := s.cov.byKey[k]; ok {
		old.Hits += hits
		return false
	}
	nc := c
	nc.Hits = hits
	s.cov.byKey[k] = &nc
	s.cov.order = append(s.cov.order, k)
	return true
}
