package value

import (
	"sort"
	"strings"
	"sync/atomic"
)

// Relation is a finite set of tuples of a fixed arity, with set semantics.
// It is the runtime representation of both EDB and IDB relations.
//
// Membership is hash-native: tuples bucket by Tuple.Hash and collisions
// resolve with Tuple.Equal, so Int/Float duplicates collapse the same way
// Equal treats them, without materializing a string key per tuple.
//
// Tuples are stored by reference, not defensively copied: a tuple handed to
// Add (directly or via RelationOf/UnionWith) is owned by the relation from
// then on, and tuples observed through Each/Tuples/Sorted are the stored
// ones. Callers must treat tuples as immutable once they reach a relation;
// every producer in this codebase allocates a fresh tuple per derived row
// (see compiledRule.exec, applyAssignments).
type Relation struct {
	arity   int
	size    int
	buckets map[uint64][]Tuple
	// shared marks the bucket storage as referenced by at least one
	// Snapshot: the next mutation copies the buckets first (copy-on-write),
	// so snapshot holders can keep reading the old storage. It is atomic
	// because concurrent readers may take snapshots of one relation at the
	// same time (the engine serves Get under a read lock); mutators run
	// exclusively (write lock) and see the flag via lock ordering.
	shared atomic.Bool
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, buckets: make(map[uint64][]Tuple)}
}

// RelationOf builds a relation of the given arity from tuples.
func RelationOf(arity int, tuples ...Tuple) *Relation {
	r := NewRelation(arity)
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

// Arity reports the arity of the relation.
func (r *Relation) Arity() int { return r.arity }

// Len reports the number of tuples.
func (r *Relation) Len() int { return r.size }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.size == 0 }

// addHashed inserts t under its precomputed hash, reporting whether the
// relation changed.
func (r *Relation) addHashed(h uint64, t Tuple) bool {
	bucket := r.buckets[h]
	for _, u := range bucket {
		if u.Equal(t) {
			return false
		}
	}
	r.buckets[h] = append(bucket, t)
	r.size++
	return true
}

// containsHashed reports membership of t under its precomputed hash.
func (r *Relation) containsHashed(h uint64, t Tuple) bool {
	for _, u := range r.buckets[h] {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// Snapshot returns an immutable view of the relation in O(1): the snapshot
// shares the bucket storage, and the next mutation of either side copies the
// storage first (copy-on-write), so a snapshot keeps observing exactly the
// state at the time it was taken. Taking a snapshot never copies tuples;
// the deferred copy is paid at most once per snapshot by the first writer.
// Concurrent Snapshot calls on one relation are safe; mutations must still
// be externally serialized against each other, as for every other method.
//
// Callers must not mutate a snapshot (mutating methods would quietly COW
// and diverge); treat it as read-only.
func (r *Relation) Snapshot() *Relation {
	r.shared.Store(true)
	s := &Relation{arity: r.arity, size: r.size, buckets: r.buckets}
	s.shared.Store(true)
	return s
}

// ensureOwned gives r private bucket storage before a mutation when the
// current storage is shared with snapshots.
func (r *Relation) ensureOwned() {
	if !r.shared.Load() {
		return
	}
	nb := make(map[uint64][]Tuple, len(r.buckets))
	for h, bucket := range r.buckets {
		nb[h] = append([]Tuple(nil), bucket...)
	}
	r.buckets = nb
	r.shared.Store(false)
}

// Add inserts t; it reports whether the relation changed. The relation
// takes ownership of t (no defensive copy); t must not be mutated
// afterwards. Add panics on an arity mismatch, which always indicates a
// bug in the caller.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic("value: relation arity mismatch on Add")
	}
	r.ensureOwned()
	return r.addHashed(t.Hash(), t)
}

// Remove deletes t; it reports whether the relation changed.
func (r *Relation) Remove(t Tuple) bool {
	r.ensureOwned()
	h := t.Hash()
	bucket := r.buckets[h]
	for i, u := range bucket {
		if u.Equal(t) {
			if len(bucket) == 1 {
				delete(r.buckets, h)
			} else {
				bucket[i] = bucket[len(bucket)-1]
				r.buckets[h] = bucket[:len(bucket)-1]
			}
			r.size--
			return true
		}
	}
	return false
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	return r.containsHashed(t.Hash(), t)
}

// Each calls fn for every tuple; fn must not mutate the relation.
func (r *Relation) Each(fn func(Tuple)) {
	for _, bucket := range r.buckets {
		for _, t := range bucket {
			fn(t)
		}
	}
}

// EachUntil calls fn for every tuple until fn returns false; it reports
// whether the iteration ran to completion.
func (r *Relation) EachUntil(fn func(Tuple) bool) bool {
	for _, bucket := range r.buckets {
		for _, t := range bucket {
			if !fn(t) {
				return false
			}
		}
	}
	return true
}

// Tuples returns the tuples in an unspecified order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.size)
	for _, bucket := range r.buckets {
		out = append(out, bucket...)
	}
	return out
}

// Sorted returns the tuples in lexicographic order, for deterministic output.
func (r *Relation) Sorted() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns an independent copy of r. The tuples themselves are shared
// (they are immutable by convention); only the set structure is copied.
func (r *Relation) Clone() *Relation {
	c := &Relation{arity: r.arity, size: r.size, buckets: make(map[uint64][]Tuple, len(r.buckets))}
	for h, bucket := range r.buckets {
		c.buckets[h] = append([]Tuple(nil), bucket...)
	}
	return c
}

// Equal reports whether two relations hold exactly the same tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r.size != s.size {
		return false
	}
	for h, bucket := range r.buckets {
		for _, t := range bucket {
			if !s.containsHashed(h, t) {
				return false
			}
		}
	}
	return true
}

// UnionWith inserts every tuple of s into r and reports whether r changed.
// It panics on an arity mismatch, like Add.
func (r *Relation) UnionWith(s *Relation) bool {
	if r.arity != s.arity {
		panic("value: relation arity mismatch on UnionWith")
	}
	r.ensureOwned()
	changed := false
	for h, bucket := range s.buckets {
		for _, t := range bucket {
			if r.addHashed(h, t) {
				changed = true
			}
		}
	}
	return changed
}

// SubtractAll removes every tuple of s from r and reports whether r changed.
func (r *Relation) SubtractAll(s *Relation) bool {
	r.ensureOwned()
	changed := false
	for _, bucket := range s.buckets {
		for _, t := range bucket {
			if r.Remove(t) {
				changed = true
			}
		}
	}
	return changed
}

// Intersect returns the set of tuples present in both r and s.
func (r *Relation) Intersect(s *Relation) *Relation {
	out := NewRelation(r.arity)
	small, big := r, s
	if s.size < r.size {
		small, big = s, r
	}
	for h, bucket := range small.buckets {
		for _, t := range bucket {
			if big.containsHashed(h, t) {
				out.addHashed(h, t)
			}
		}
	}
	return out
}

// Minus returns r \ s as a new relation.
func (r *Relation) Minus(s *Relation) *Relation {
	out := NewRelation(r.arity)
	for h, bucket := range r.buckets {
		for _, t := range bucket {
			if !s.containsHashed(h, t) {
				out.addHashed(h, t)
			}
		}
	}
	return out
}

// String renders the relation as a sorted set of tuples.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range r.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}
