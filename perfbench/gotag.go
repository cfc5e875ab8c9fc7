package main

import "unsafe"

// The tracer tags each goroutine with the operation it runs, in the
// runtime's per-goroutine profiler-label slot.  The runtime copies that
// slot into every goroutine a goroutine starts, so device calls the
// store makes from goroutines of its own are charged to the operation
// that started them, at the cost of a pointer store and load.  The slot
// normally holds runtime/pprof's label set: the benchmark must not run a
// CPU or goroutine profile with labels while it traces.

//go:linkname runtimeSetProfLabel runtime/pprof.runtime_setProfLabel
func runtimeSetProfLabel(labels unsafe.Pointer)

//go:linkname runtimeGetProfLabel runtime/pprof.runtime_getProfLabel
func runtimeGetProfLabel() unsafe.Pointer

// setGoroutineOp tags the calling goroutine with op (nil: untagged).
func setGoroutineOp(op *opSpan) { runtimeSetProfLabel(unsafe.Pointer(op)) }

// goroutineOp returns the calling goroutine's tag.
func goroutineOp() *opSpan { return (*opSpan)(runtimeGetProfLabel()) }
