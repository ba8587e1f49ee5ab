package covirt

func poke(q *cmdQueue) uint64 {
	return q.applied.Load() // want: cmdQueue field access outside cmdqueue.go
}
