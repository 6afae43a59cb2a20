package stmds

// Key hashing: structures hash a key's codec-encoded words (Map: without
// the trailing zero words, which it does not store), so any K with a Codec
// hashes consistently without a user-supplied hash function, and two keys
// that encode equally (e.g. strings canonicalized by a String codec)
// always land in the same bucket chain.

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix, so that
// dense key spaces (sequential ints are the common case) still spread
// across the table.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashWords folds encoded key words into one 64-bit hash.
func hashWords(words []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h = mix64(h ^ w)
	}
	return h
}
