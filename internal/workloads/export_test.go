package workloads

// GetGUPSTable and PutGUPSTable expose the GUPS table pool to the external
// tests.
var (
	GetGUPSTable = getGUPSTable
	PutGUPSTable = putGUPSTable
)
