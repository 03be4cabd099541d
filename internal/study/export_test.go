package study

// RunDeepOnly hands the deep job, analyzer included, to the package's
// external tests, which render through internal/report (it imports study).
var RunDeepOnly = runDeepOnly
