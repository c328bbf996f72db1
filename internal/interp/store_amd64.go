package interp

import "sync/atomic"

// storeWords is storeBlock's kernel on amd64: store_amd64.s.
//
//go:noescape
func storeWords(data []atomic.Uint64, off, step int64, src []uint64)
