package core

// SetCaps lowers the analyzer's table and summary-map caps so a test can
// reach them with a few accesses.
func (d *DepAnalyzer) SetCaps(warnings, summary int) {
	d.warningCap, d.summaryCap = warnings, summary
}
