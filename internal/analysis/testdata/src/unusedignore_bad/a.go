// Package unusedignore_bad holds stale and misspelled suppression
// directives the audit must report.
package unusedignore_bad

import "buffer"

// cleanButSuppressed pairs its pin correctly, so the directive has
// nothing to suppress.
func cleanButSuppressed(pool *buffer.Pool, pg buffer.PageID) error {
	//eoslint:ignore pairs -- stale: the leak this excused was fixed long ago /* want "eoslint:ignore pairs suppresses nothing" */
	img, err := pool.Fix(pg)
	if err != nil {
		return err
	}
	_ = img
	return pool.Unpin(pg)
}

// typoed names an analyzer that does not exist, so it never worked;
// it is reported both as unknown and as suppressing nothing.
func typoed(pool *buffer.Pool, pg buffer.PageID) error {
	//eoslint:ignore pinpairs -- typo for the retired pinpair /* want "eoslint:ignore names unknown analyzer\\(s\\) pinpairs" "eoslint:ignore pinpairs suppresses nothing" */
	img, err := pool.Fix(pg)
	if err != nil {
		return err
	}
	_ = img
	return pool.Unpin(pg)
}

// usedDirective really suppresses a pin leak: the audit must not flag
// it.  (The suppressed pairs diagnostic itself is checked by the pairs
// fixtures, not here.)
func usedDirective(pool *buffer.Pool, pg buffer.PageID) []byte {
	//eoslint:ignore pairs -- pin intentionally handed to the caller
	img, err := pool.Fix(pg)
	if err != nil {
		return nil
	}
	return img
}

// retiredName names leaksip, whose leak checks now belong to pairs: a
// retired name is reported, not silently accepted.
func retiredName(pool *buffer.Pool, pg buffer.PageID) error {
	//eoslint:ignore leaksip -- retired with its checks folded into pairs /* want "eoslint:ignore names unknown analyzer\\(s\\) leaksip" "eoslint:ignore leaksip suppresses nothing" */
	img, err := pool.Fix(pg)
	if err != nil {
		return err
	}
	_ = img
	return pool.Unpin(pg)
}
