package poison

// Hold locks the cell's mutex — the one Done, Value, Cause and
// the poisoning itself take — until the returned func is called, so a
// test can show that a code path never reaches any of them.
func (c *Cell) Hold() (release func()) {
	c.mu.Lock()
	return c.mu.Unlock
}
