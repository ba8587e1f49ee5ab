package workloads

// GetGUPSTable and PutGUPSTable expose the GUPS table pool to the external
// tests.
var (
	GetGUPSTable = getGUPSTable
	PutGUPSTable = putGUPSTable
)

// Parked reports how many ranks are asleep at the barrier.
func (b *Barrier) Parked() int { return b.wait.Parked() }
