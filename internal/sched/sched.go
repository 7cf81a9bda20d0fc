// Package sched holds what the batch pool (antgpu.Pool) shares across the
// solves it runs: a content-hash-keyed cache of instance-derived read-only
// data (NN lists, greedy-NN tour lengths) that every solve of one instance
// reads, and the fair split of the machine's cores across concurrent
// solves. The pool's bounded dispatch itself is antgpu.Pool.Submit.
//
// The design follows the layering of the GPU ACO literature: the in-colony
// parallelization strategies of Cecilia et al. live in internal/core, the
// independent-runs model of Stützle in internal/aco, and the pool adds the
// next layer up — many independent colonies in flight at once, sharing
// nothing but immutable instance data (Skinderowicz's concurrent-colonies
// observation). Nothing in here knows about ants or GPUs; it memoizes
// opaque derived data.
package sched

// WorkerShare splits gomaxprocs cores fairly across poolWorkers concurrent
// jobs: each job gets gomaxprocs/poolWorkers cores, never fewer than one.
// It sizes the per-request tensor-engine worker count in the service: when
// the admission pool runs several solves at once, giving each of them the
// whole machine would just thrash, so each gets its share — and on a
// lightly-provisioned pool (poolWorkers == 1) the single solve keeps every
// core. Non-positive inputs degrade to 1.
func WorkerShare(gomaxprocs, poolWorkers int) int {
	if gomaxprocs < 1 || poolWorkers < 1 {
		return 1
	}
	share := gomaxprocs / poolWorkers
	if share < 1 {
		return 1
	}
	return share
}
