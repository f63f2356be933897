// Package scratchfix seeds scratchshare violations: per-worker scratch
// escaping into goroutines (by argument and by closure capture) and into
// fork-join closures.
package scratchfix

import "sync"

type workScratch struct {
	m []float64
}

// buffers is scratch by annotation rather than by name.
//
//statcheck:scratch
type buffers struct {
	tmp []int64
}

func work(s *workScratch) { _ = s }

// Fan shares one scratch across every worker.
func Fan(jobs []int, s *workScratch, b *buffers) {
	var wg sync.WaitGroup
	for range jobs {
		wg.Add(1)
		go work(s) // want scratchshare
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = b.tmp // want scratchshare
	}()
	wg.Wait()
}

// spillScratch mimics a per-partition spill writer's row buffer: one
// buffered writer per partition, never shared across partition workers.
type spillScratch struct {
	row []int64
}

func writePartition(s *spillScratch) { _ = s.row }

// SpillPartitions hands one shared spill-writer scratch to every partition
// worker — concurrent appends interleave rows across partitions.
func SpillPartitions(parts []int, s *spillScratch) {
	var wg sync.WaitGroup
	for range parts {
		wg.Add(1)
		go writePartition(s) // want scratchshare
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.row // want scratchshare
	}()
	wg.Wait()
}

// SpillPartitionsIsolated forks a private writer scratch per partition:
// allowed.
func SpillPartitionsIsolated(parts []int) {
	var wg sync.WaitGroup
	for range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s spillScratch
			writePartition(&s)
		}()
	}
	wg.Wait()
}

// Isolated declares a private scratch inside each worker: allowed.
func Isolated(jobs []int) {
	var wg sync.WaitGroup
	for range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s workScratch
			_ = s
		}()
	}
	wg.Wait()
}

// ForkJoin mirrors exec.ForkJoin: its closure runs on the caller and on
// helper goroutines at once.
func ForkJoin(n, width int, fn func(int)) { fn(0) }

// ForkJoinShared hands one scratch to every fork-join call — the same
// violation as a bare `go` statement.
func ForkJoinShared(jobs []int) {
	var s workScratch
	ForkJoin(len(jobs), 2, func(i int) {
		_ = s.m // want scratchshare
	})
}

// ForkJoinIsolated declares a private scratch inside each call: allowed.
func ForkJoinIsolated(jobs []int) {
	ForkJoin(len(jobs), 2, func(i int) {
		var s workScratch
		_ = s.m
	})
}
