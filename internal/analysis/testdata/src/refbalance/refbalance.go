// Package refbalance exercises the encode-once ownership rules on a type
// shaped like wire.EncodedFrame.
package refbalance

// Frame carries Retain/Release, so refbalance treats it as refcounted.
type Frame struct{ payload []byte }

func (f *Frame) Retain(n int32) {}
func (f *Frame) Release()       {}
func (f *Frame) Len() int       { return len(f.payload) }

func encode() *Frame { return &Frame{} }

func leak() {
	f := encode() // want "refbalance: refcounted frame acquired here is neither Released nor handed off"
	_ = f.Len()
}

func balanced() {
	f := encode()
	_ = f.Len()
	f.Release()
}

func handoffReturn() *Frame {
	f := encode()
	return f
}

func handoffArg() {
	f := encode()
	consume(f)
}

func consume(f *Frame) { f.Release() }

type box struct{ f *Frame }

func handoffComposite() box {
	f := encode()
	return box{f: f}
}

func handoffChannel(ch chan *Frame) {
	f := encode()
	ch <- f
}

func retainUnbalanced() {
	f := encode()
	f.Retain(2) // want "refbalance: Retain on f in a function that never hands the frame off"
	f.Release()
}

// retainFanout is the encode-once shape: Retain references for other
// owners, then hand them off.
func retainFanout() {
	f := encode()
	f.Retain(1)
	consume(f)
	consume(f)
}
