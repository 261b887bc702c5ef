package sampling

// RefRun exposes the reference schedules (reference_test.go) to the
// external test package, which can reach check.DefaultPolicies and
// SimPoint.
var RefRun = refRun

// MeasureWarm exposes Measure's warm-up to refSimPointRunBoth.
const MeasureWarm = measureWarm
