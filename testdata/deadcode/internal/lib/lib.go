// Package lib holds the planted declarations, dead and alive.
package lib

// Orphan has no caller outside tests: dead.
func Orphan() int { return Orphan() }

// Namer is the program's interface; Thing reaches Name only through it.
type Namer interface{ Name() string }

// Describe calls Name through Namer.
func Describe(n Namer) string { return n.Name() }

// Thing satisfies Namer and fmt.Stringer.
type Thing struct{}

// Name is reached through Namer.
func (Thing) Name() string { return "thing" }

// String is reached through fmt.Stringer.
func (Thing) String() string { return "a thing" }

// Box has a method named like Namer's but of another type: dead.
type Box struct{}

// Name returns an int, so Box satisfies no interface and nothing calls it.
func (*Box) Name() int { return 0 }

// WrapError wraps an error; errors.Is reaches Unwrap through an interface
// package errors asserts without naming it.
type WrapError struct{ Err error }

func (w WrapError) Error() string { return "wrapped: " + w.Err.Error() }

// Unwrap is reached only through errors.Is.
func (w WrapError) Unwrap() error { return w.Err }

// Stack is generic; Push is called on Stack[int].
type Stack[T any] struct{ items []T }

// Push appends v.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Items returns the stacked values.
func (s *Stack[T]) Items() []T { return s.items }

// Options is a settings struct. Only withDefaults sets Local: dead. Another
// package sets Remote.
type Options struct {
	Local  int
	Remote int
}

func (o Options) withDefaults() Options {
	if o.Local == 0 {
		o.Local = 4
	}
	if o.Remote == 0 {
		o.Remote = 1
	}
	return o
}

// Use reads the options.
func Use(o Options) int {
	o = o.withDefaults()
	return o.Local + o.Remote
}

// tally's count is read; hits is only ever assigned: dead.
type tally struct {
	count int
	hits  int
}

// Count reads a tally's count.
func Count(n int) int {
	t := tally{count: n}
	t.hits = n
	return t.count
}
