package pinbcast

import (
	"fmt"
	"sort"
	"sync"
)

// registry is a concurrency-safe table of named strategies. The
// Scheduler, Layout and Shard registries are its three instances; kind
// names the strategy in error messages.
type registry[T interface{ Name() string }] struct {
	kind   string
	mu     sync.RWMutex
	byName map[string]T
}

func newRegistry[T interface{ Name() string }](kind string) *registry[T] {
	return &registry[T]{kind: kind, byName: map[string]T{}}
}

// register adds v under its name. It returns ErrBadSpec when the name
// is empty or already taken.
func (r *registry[T]) register(v T) error {
	name := v.Name()
	if name == "" {
		return fmt.Errorf("pinbcast: %s has no name: %w", r.kind, ErrBadSpec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("pinbcast: %s %q already registered: %w", r.kind, name, ErrBadSpec)
	}
	r.byName[name] = v
	return nil
}

// lookup returns the value registered under name.
func (r *registry[T]) lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byName[name]
	return v, ok
}

// names returns every registered name, sorted.
func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
