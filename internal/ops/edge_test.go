package ops

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Block, DropOldest, DropNewest, Shed} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus policy")
	}
}

// TestCloseReleasesParkedReceivers: receivers parked on an edge all return
// once it is closed and drained, under every policy, so a pipeline that
// closes its edges leaves no consumer goroutine behind.
func TestCloseReleasesParkedReceivers(t *testing.T) {
	for _, p := range []Policy{Block, DropOldest, DropNewest, Shed} {
		t.Run(p.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEdge(EdgeConfig[int]{Capacity: 4, Policy: p})
			var got atomic.Int64
			for i := 0; i < 4; i++ {
				go func() {
					for {
						if _, ok := e.Recv(); !ok {
							return
						}
						got.Add(1)
					}
				}()
			}
			for v := 0; v < 100; v++ {
				e.SendMust(v)
			}
			// Let the receivers drain the edge and park on it again, so
			// Close has sleepers to wake.
			for got.Load() < 100 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond)
			e.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			if got.Load() != 100 {
				t.Fatalf("receivers got %d messages, want 100", got.Load())
			}
		})
	}
}

func TestBlockEdgeIsAChannel(t *testing.T) {
	e := NewEdge(EdgeConfig[int]{Capacity: 2})
	e.Send(1)
	e.SendMust(2)
	e.Close()
	var got []int
	for {
		v, ok := e.Recv()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
	if e.Dropped() != 0 || e.Cap() != 2 {
		t.Fatalf("Dropped=%d Cap=%d", e.Dropped(), e.Cap())
	}
}

func TestDropNewestRejectsArrivals(t *testing.T) {
	var drops []int
	e := NewEdge(EdgeConfig[int]{Capacity: 2, Policy: DropNewest, OnDrop: func(v int) { drops = append(drops, v) }})
	for v := 1; v <= 5; v++ {
		e.Send(v)
	}
	e.Close()
	var got []int
	for {
		v, ok := e.Recv()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("kept %v, want the oldest [1 2]", got)
	}
	if e.Dropped() != 3 || len(drops) != 3 || drops[0] != 3 {
		t.Fatalf("dropped %v (counter %d), want [3 4 5]", drops, e.Dropped())
	}
}

func TestDropOldestEvictsHead(t *testing.T) {
	var drops []int
	e := NewEdge(EdgeConfig[int]{Capacity: 2, Policy: DropOldest, OnDrop: func(v int) { drops = append(drops, v) }})
	for v := 1; v <= 5; v++ {
		e.Send(v)
	}
	e.Close()
	var got []int
	for {
		v, ok := e.Recv()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("kept %v, want the freshest [4 5]", got)
	}
	if e.Dropped() != 3 || len(drops) != 3 || drops[0] != 1 {
		t.Fatalf("dropped %v (counter %d), want [1 2 3]", drops, e.Dropped())
	}
}

func TestDropOldestNeverEvictsControl(t *testing.T) {
	// Negative values model control messages (watermarks/barriers).
	e := NewEdge(EdgeConfig[int]{
		Capacity: 2, Policy: DropOldest,
		CanDrop: func(v int) bool { return v >= 0 },
	})
	e.SendMust(-1)
	e.Send(10)
	e.Send(20) // full: must evict 10, not the control message
	e.Close()
	var got []int
	for {
		v, ok := e.Recv()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != -1 || got[1] != 20 {
		t.Fatalf("kept %v, want [-1 20]", got)
	}
}

func TestShedConservesAndShedsUnderSaturation(t *testing.T) {
	const capacity, sent = 10, 100
	dropped := 0
	e := NewEdge(EdgeConfig[int]{
		Capacity: capacity, Policy: Shed, ShedLowWater: 0.3, Seed: 7,
		OnDrop: func(int) { dropped++ },
	})
	for v := 0; v < sent; v++ {
		e.Send(v)
	}
	// No consumer: once occupancy hits 1 the drop probability is 1, so Send
	// never blocks and at most capacity messages are resident.
	if e.Len() > capacity {
		t.Fatalf("resident %d > capacity %d", e.Len(), capacity)
	}
	if int64(dropped) != e.Dropped() {
		t.Fatalf("OnDrop saw %d, counter says %d", dropped, e.Dropped())
	}
	if e.Len()+dropped != sent {
		t.Fatalf("conservation broken: %d resident + %d dropped != %d sent", e.Len(), dropped, sent)
	}
	if dropped < sent-capacity {
		t.Fatalf("dropped %d, want >= %d under saturation", dropped, sent-capacity)
	}
}

// TestBoundedMemoryUnderConcurrentOverload is the bounded-memory proof for
// the ring policies: a fast producer against a slow consumer must never grow
// the queue past its capacity, and every message must be accounted for.
func TestBoundedMemoryUnderConcurrentOverload(t *testing.T) {
	for _, pol := range []Policy{DropOldest, DropNewest, Shed} {
		t.Run(pol.String(), func(t *testing.T) {
			const capacity, sent = 8, 20000
			var mu sync.Mutex
			dropped := 0
			e := NewEdge(EdgeConfig[int]{
				Capacity: capacity, Policy: pol, Seed: 42,
				OnDrop: func(int) { mu.Lock(); dropped++; mu.Unlock() },
			})
			received := 0
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, ok := e.Recv(); !ok {
						return
					}
					received++
					for i := 0; i < 50; i++ { // slow consumer
						_ = i
					}
				}
			}()
			for v := 0; v < sent; v++ {
				e.Send(v)
			}
			e.Close()
			wg.Wait()
			if e.MaxLen() > capacity {
				t.Fatalf("high-water %d > capacity %d", e.MaxLen(), capacity)
			}
			if received+dropped != sent {
				t.Fatalf("conservation broken: %d received + %d dropped != %d sent", received, dropped, sent)
			}
		})
	}
}

func TestSendMustBlocksInsteadOfDropping(t *testing.T) {
	e := NewEdge(EdgeConfig[int]{Capacity: 1, Policy: DropNewest})
	e.Send(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.SendMust(2) // full: must wait for the consumer, not drop
	}()
	if v, ok := e.Recv(); !ok || v != 1 {
		t.Fatalf("Recv = %d, %v", v, ok)
	}
	<-done
	if v, ok := e.Recv(); !ok || v != 2 {
		t.Fatalf("Recv = %d, %v", v, ok)
	}
	if e.Dropped() != 0 {
		t.Fatalf("SendMust dropped %d messages", e.Dropped())
	}
}
