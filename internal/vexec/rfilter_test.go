package vexec

import (
	"sync"
	"testing"

	"perm/internal/types"
	"perm/internal/vector"
)

// workerKeys builds the distinctive key vector worker g publishes: 100
// consecutive ints starting at g*1000, so each worker's summary has a
// recognizable min/max range.
func workerKeys(g int) *vector.Vec {
	v := vector.NewVec(types.KindInt, 100)
	for i := range v.I {
		v.I[i] = int64(g*1000 + i)
	}
	return v
}

// admitted runs the batch admit over every row of col.
func admitted(rf *RuntimeFilter, col *vector.Vec) []int {
	lanes := identitySel[:col.Len()]
	return rf.admit(col, lanes, make([]int, 0, len(lanes)), new(rfScratch))
}

// TestRuntimeFilterPublishOnce races N builders on one shared filter —
// the replicated-pipeline shape, where every worker's hash join finishes
// its build side and tries to publish. Exactly one publication must win,
// and the summary must be that winner's, untorn: its range matches a
// single worker's key set and every key of that set is admitted. Run
// under -race this is also the memory-model gate for the claimed/ready
// atomics.
func TestRuntimeFilterPublishOnce(t *testing.T) {
	const publishers = 8
	rf := NewRuntimeFilter(false)
	keys := make([]*vector.Vec, publishers)
	for g := range keys {
		keys[g] = workerKeys(g)
	}

	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(2 * publishers)
	for g := 0; g < publishers; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			rf.PublishFrom(types.KindInt, []*vector.Vec{keys[g]})
		}(g)
		// Concurrent probe-side readers: poll Ready, and once it flips,
		// the summary must already be complete enough to admit safely.
		go func(g int) {
			defer done.Done()
			start.Wait()
			for !rf.Ready() {
			}
			admitted(rf, keys[g])
		}(g)
	}
	start.Done()
	done.Wait()

	if !rf.Ready() {
		t.Fatal("filter never became ready")
	}
	winner := int(rf.minI / 1000)
	if winner < 0 || winner >= publishers {
		t.Fatalf("summary range %d..%d matches no publisher", rf.minI, rf.maxI)
	}
	if rf.minI != int64(winner*1000) || rf.maxI != int64(winner*1000+99) {
		t.Fatalf("torn summary: range %d..%d is not worker %d's key set", rf.minI, rf.maxI, winner)
	}
	if got := admitted(rf, keys[winner]); len(got) != 100 {
		t.Fatalf("winning worker %d: %d of 100 keys admitted", winner, len(got))
	}
	// A late publish is a no-op: the summary stays the winner's.
	rf.PublishFrom(types.KindInt, []*vector.Vec{workerKeys(publishers + 1)})
	if rf.minI != int64(winner*1000) || rf.maxI != int64(winner*1000+99) {
		t.Fatal("late PublishFrom overwrote the published summary")
	}
}

// TestRuntimeFilterEmptyBuild pins the empty-build contract: the filter
// publishes (ready) but admits nothing, matching an inner join with an
// empty build side.
func TestRuntimeFilterEmptyBuild(t *testing.T) {
	rf := NewRuntimeFilter(false)
	rf.PublishFrom(types.KindInt, nil)
	if !rf.Ready() {
		t.Fatal("empty publish must still mark the filter ready")
	}
	if got := admitted(rf, workerKeys(0)); len(got) != 0 {
		t.Fatalf("empty build admitted lanes %v", got)
	}
}
