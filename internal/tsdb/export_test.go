package tsdb

// CorruptChunk cuts the i-th sealed chunk of the named series to half its
// bytes, in memory, so that decoding it runs out of stream partway — a torn
// or rotted chunk, for the tests outside the package — and returns the
// chunk's summary, which still promises every sample.
func CorruptChunk(db *DB, name string, i int) Summary {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := db.series[name].sealed[i]
	c.w.buf = c.w.buf[:len(c.w.buf)/2]
	return c.summary
}
