//go:build !amd64

package interp

// storeWords is storeBlock's kernel: the portable loop, which stays atomic
// where a uint64 is not one machine word.
var storeWords = storeAtomic
