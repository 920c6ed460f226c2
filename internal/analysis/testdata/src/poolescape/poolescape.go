// Package poolescape exercises the decode-copies-out contract: pooled
// buffers never outlive their pool window.
package poolescape

import "sync"

var bufPool = sync.Pool{New: func() any { b := make([]byte, 1024); return &b }}

type holder struct{ buf *[]byte }

var global *[]byte

// getBuf hands pooled buffers to callers by contract.
//
//dimlint:pooled
func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

func badReturn() *[]byte {
	b := bufPool.Get().(*[]byte)
	return b // want "poolescape: pooled buffer returned from a function not marked"
}

func badDirectReturn() any {
	return bufPool.Get() // want "poolescape: pooled buffer returned from a function not marked"
}

func accessorCallerBad() *[]byte {
	b := getBuf()
	return b // want "poolescape: pooled buffer returned from a function not marked"
}

func badFieldStore(h *holder) {
	b := bufPool.Get().(*[]byte)
	h.buf = b // want "poolescape: pooled buffer stored in h.buf"
	bufPool.Put(b)
}

func badGlobalStore() {
	b := bufPool.Get().(*[]byte)
	global = b // want "poolescape: pooled buffer stored in package-level variable global"
	bufPool.Put(b)
}

func badSend(ch chan *[]byte) {
	b := bufPool.Get().(*[]byte)
	ch <- b // want "poolescape: pooled buffer sent on a channel"
}

func badGoroutine() {
	b := bufPool.Get().(*[]byte)
	go func() {
		_ = (*b)[0] // want "poolescape: pooled buffer b captured by a goroutine"
	}()
}

// badJoinedFanOut: joining the goroutine before the Put earns no
// exemption; every pooled capture is flagged.
func badJoinedFanOut() {
	b := bufPool.Get().(*[]byte)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = (*b)[0] // want "poolescape: pooled buffer b captured by a goroutine"
	}()
	wg.Wait()
	bufPool.Put(b)
}

func badUseAfterPut() {
	b := bufPool.Get().(*[]byte)
	(*b)[0] = 1
	bufPool.Put(b)
	_ = (*b)[0] // want "poolescape: use of pooled buffer b after it was returned to its pool"
}

// goodBorrow: passing a pooled buffer to an ordinary call is fine — the
// callee returns before the buffer can recycle.
func goodBorrow() {
	b := bufPool.Get().(*[]byte)
	fill(b)
	bufPool.Put(b)
}

func fill(b *[]byte) { (*b)[0] = 1 }

// Frame is refcounted (Retain/Release): its lifetime belongs to
// refbalance, so poolescape exempts it even when pooled.
type Frame struct{ n int }

func (f *Frame) Retain(n int32) {}
func (f *Frame) Release()       {}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

func frameOK() *Frame {
	f := framePool.Get().(*Frame)
	f.n = 0
	return f
}
