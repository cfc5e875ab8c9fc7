package eos

// DisableGroupCommit switches s's log to the serial write path: every
// log append issues its own positional write and every commit forces
// the log itself.  The write-path benchmarks use it as their baseline;
// durability semantics are identical either way.  Recovery installs a
// fresh log, so call it again after Open.
func DisableGroupCommit(s *Store) error { return s.log.SetGroupCommit(false) }
