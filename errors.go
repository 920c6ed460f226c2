package dimprune

import "errors"

// Sentinel errors of the public API. Match them with errors.Is.
var (
	// ErrClosed reports an operation on a closed Embedded engine or a
	// retired subscription handle.
	ErrClosed = errors.New("dimprune: closed")

	// ErrNilMessage reports a nil *Message passed to Publish.
	ErrNilMessage = errors.New("dimprune: nil message")
)
