package stmds

import (
	stm "github.com/stm-go/stm"
)

// Set is a transactional set of K: a Map[K, struct{}] with no value words
// (one state word plus the encoded key per slot) and a membership-shaped
// API. It shares the Map's concurrency and incremental-resize behavior.
type Set[K comparable] struct {
	mp *Map[K, struct{}]
}

// SetWords returns the number of Memory words a NewSet with the given
// codec and size hint reserves up front (growth reserves more; see
// MapWords).
func SetWords[K comparable](kc stm.Codec[K], sizeHint int) int {
	return MapWords[K, struct{}](kc, nil, sizeHint)
}

// NewSet lays a set in m sized for sizeHint elements.
func NewSet[K comparable](m *stm.Memory, kc stm.Codec[K], sizeHint int) (*Set[K], error) {
	mp, err := NewMap[K, struct{}](m, kc, nil, sizeHint)
	if err != nil {
		return nil, err
	}
	return &Set[K]{mp: mp}, nil
}

// Memory returns the Memory the set lives in.
func (s *Set[K]) Memory() *stm.Memory { return s.mp.m }

// Add inserts k, reporting whether it was newly added (false: already
// present). The only errors are growth failures; see Map.Put.
func (s *Set[K]) Add(k K) (added bool, err error) {
	_, present, err := s.mp.Put(k, struct{}{})
	return !present && err == nil, err
}

// AddTx is Add inside the caller's transaction; see Map.PutTx for the
// full-table caveat.
func (s *Set[K]) AddTx(tx *stm.DTx, k K) (added bool, err error) {
	_, present, err := s.mp.PutTx(tx, k, struct{}{})
	return !present && err == nil, err
}

// Contains reports whether k is in the set.
func (s *Set[K]) Contains(k K) bool {
	_, ok := s.mp.Get(k)
	return ok
}

// ContainsTx is Contains inside the caller's transaction.
func (s *Set[K]) ContainsTx(tx *stm.DTx, k K) bool {
	_, ok := s.mp.GetTx(tx, k)
	return ok
}

// Remove deletes k, reporting whether it was present.
func (s *Set[K]) Remove(k K) bool {
	_, ok := s.mp.Delete(k)
	return ok
}

// RemoveTx is Remove inside the caller's transaction.
func (s *Set[K]) RemoveTx(tx *stm.DTx, k K) bool {
	_, ok := s.mp.DeleteTx(tx, k)
	return ok
}

// Len returns the number of elements.
func (s *Set[K]) Len() int { return s.mp.Len() }

// LenTx is Len inside the caller's transaction; see Map.LenTx.
func (s *Set[K]) LenTx(tx *stm.DTx) int { return s.mp.LenTx(tx) }
