// Package parallel provides the bounded worker pool behind the
// experiment sweep engine. Every (policy, workload) cell of a study is
// an independent simulation, so a sweep is embarrassingly parallel; the
// helpers here fan cells out across a fixed number of workers while
// keeping results deterministic: work is identified by index, results
// are slotted by index (never by arrival order), and the first error —
// by index, not by time — cancels the remaining work and is the one
// reported.
package parallel

import (
	"context"
	"runtime"
)

// ForEach runs fn(ctx, i) for every i in [0, n) across at most
// `workers` goroutines. workers <= 0 selects GOMAXPROCS. The call
// returns after all started work has finished. Scheduling rides on the
// work-stealing pool (see RunTasks): every index costs the same, so
// seeding deals indices round-robin and idle workers steal the
// leftovers instead of queueing on one shared channel.
//
// On failure, the error of the lowest-index failing call is returned —
// a deterministic choice regardless of scheduling — and the shared
// context is cancelled so still-running calls can abort early. Indices
// after a failure may or may not run; callers must treat their slots as
// undefined on error. If the parent context is cancelled, its error is
// returned.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential fast path: no goroutines, no task list, same
		// semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i].Index = i
	}
	return RunTasks(ctx, workers, tasks, fn)
}

// Chunks splits n consecutive items into spans of at most size,
// returned as [start, end) index pairs in order. size <= 0 yields one
// span covering everything; n <= 0 yields none. Work schedulers use it
// to turn an item list into batch-sized work units while preserving
// item order inside each unit.
func Chunks(n, size int) [][2]int {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}
