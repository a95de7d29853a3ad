// Package deadcode is a planted module for the dead-code gate's own test.
// Its root package is exported API, so only what it calls counts.
package deadcode

import (
	"errors"
	"fmt"
	"io"

	"deadcode/internal/lib"
)

// Run reaches lib's declarations by every route the gate must see.
func Run() string {
	var s lib.Stack[int]
	s.Push(1)
	n := lib.Use(lib.Options{Remote: 2}) + len(s.Items()) + lib.Count(3)
	eof := errors.Is(lib.WrapError{Err: io.EOF}, io.EOF)
	return fmt.Sprint(lib.Thing{}, lib.Describe(lib.Thing{}), lib.Box{}, n, eof)
}
