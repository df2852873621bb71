// Package parallel splits a loop over items into contiguous parts and
// runs the parts on goroutines. The set-up passes over a graph's edges
// and vertices use it: bigraph's weight order and core's snapshot
// tables. Each part writes only its own range of the outputs, so no
// result depends on how many parts a loop runs in.
package parallel

import "sync"

// Grain is the fewest items a part holds. A loop over fewer than
// 2·Grain items runs as one part on the calling goroutine, so a small
// graph's set-up starts no goroutine.
const Grain = 1 << 13

// Parts returns how many parts a loop over n items runs in on workers
// goroutines: at most workers, at most one per Grain items, and at
// least one.
func Parts(n, workers int) int { return max(1, min(workers, n/Grain)) }

// Range returns the bounds of the part-th of parts contiguous parts of
// [0, n), which differ in length by at most one.
func Range(n, parts, part int) (lo, hi int) { return part * n / parts, (part + 1) * n / parts }

// Do runs f(0), …, f(parts−1) and returns once every call has returned:
// part 0 on the calling goroutine, every other part on one of its own.
func Do(parts int, f func(part int)) {
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go func(p int) {
			defer wg.Done()
			f(p)
		}(p)
	}
	f(0)
	wg.Wait()
}
