// Package mpi is the repo's stand-in for the paper's MPI layer: an
// in-process message-passing runtime whose ranks are goroutines. It provides
// the collectives the simulators need (point-to-point send/recv, pairwise
// exchange, all-to-all-v, barrier, gather) and — because the object of study
// is communication volume — it meters every transfer per rank and converts
// it to modeled wall-clock time with a latency+bandwidth (α–β) cost model
// calibrated to the paper's InfiniBand HDR-100 interconnect.
package mpi

import (
	"fmt"
	"sync"
	"time"
)

// CostModel is the α–β communication model: a message of b bytes costs
// Latency + b/Bandwidth seconds on both endpoints.
type CostModel struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second
}

// HDR100 approximates one InfiniBand HDR-100 link as used on Frontera:
// ~1.5 µs MPI latency, ~12 GB/s effective bandwidth.
func HDR100() CostModel {
	return CostModel{Latency: 1.5e-6, Bandwidth: 12e9}
}

// Time returns the modeled seconds for one message of b bytes.
func (m CostModel) Time(b int64) float64 {
	if m.Bandwidth <= 0 {
		return m.Latency
	}
	return m.Latency + float64(b)/m.Bandwidth
}

// Stats accumulates one rank's communication and compute footprint.
type Stats struct {
	Rank           int
	MsgsSent       int64
	MsgsRecv       int64
	BytesSent      int64
	BytesRecv      int64
	CommSeconds    float64 // modeled (α–β) communication time
	ComputeSeconds float64 // measured local compute time
}

type message struct {
	tag  int
	data []complex128
}

// World is one communicator spanning Size ranks.
type World struct {
	size   int
	model  CostModel
	mail   []chan message // mail[src*size+dst]
	stats  []Stats
	realOf []int // physical node of each rank; co-located transfers are free

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	barrierCnt  int
	barrierGen  int
}

// NewWorld creates a communicator for size ranks.
func NewWorld(size int, model CostModel) *World {
	if size < 1 {
		panic("mpi: world size must be >= 1")
	}
	realOf := make([]int, size)
	for i := range realOf {
		realOf[i] = i
	}
	w := &World{size: size, model: model, realOf: realOf,
		mail:  make([]chan message, size*size),
		stats: make([]Stats, size),
	}
	for i := range w.mail {
		// Generous buffering: a rank sends at most a handful of in-flight
		// messages per peer in the protocols used here.
		w.mail[i] = make(chan message, 4+size)
	}
	for r := range w.stats {
		w.stats[r].Rank = r
	}
	w.barrierCond = sync.NewCond(&w.barrierMu)
	return w
}

// Run executes fn on every rank concurrently and returns per-rank stats.
// The first error (if any) is returned after all ranks finish.
func Run(size int, model CostModel, fn func(c *Comm) error) ([]Stats, error) {
	return RunMapped(size, nil, model, fn)
}

// RunMapped is Run with a virtual-rank mapping (the paper's footnote-2
// relaxation): realOf[v] names the physical node hosting virtual rank v.
// Transfers between co-located virtual ranks are intra-node copies and are
// metered as zero communication. realOf == nil means one rank per node.
func RunMapped(size int, realOf []int, model CostModel, fn func(c *Comm) error) ([]Stats, error) {
	w := NewWorld(size, model)
	if realOf != nil {
		if len(realOf) != size {
			return nil, fmt.Errorf("mpi: realOf has %d entries for %d ranks", len(realOf), size)
		}
		copy(w.realOf, realOf)
	}
	errs := make([]error, size)
	// Not par.Each: ranks block on each other, so an unclaimed rank would strand its peers.
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = fn(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return w.stats, err
		}
	}
	return w.stats, nil
}

// Comm is one rank's handle on the world.
type Comm struct {
	world   *World
	rank    int
	pending []message // out-of-order buffer per peer is folded into one list
	pendSrc []int
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.world.size }

// Stats returns a snapshot of this rank's accounting.
func (c *Comm) Stats() Stats { return c.world.stats[c.rank] }

func (c *Comm) chanTo(dst int) chan message   { return c.world.mail[c.rank*c.world.size+dst] }
func (c *Comm) chanFrom(src int) chan message { return c.world.mail[src*c.world.size+c.rank] }

// Send transmits data (copied) to dst with a tag. Never blocks indefinitely
// under the collectives' usage patterns; panics on a full mailbox, which
// indicates a protocol bug.
func (c *Comm) Send(dst, tag int, data []complex128) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	buf := append([]complex128(nil), data...)
	if c.world.realOf[c.rank] != c.world.realOf[dst] {
		b := int64(len(buf)) * 16
		st := &c.world.stats[c.rank]
		st.MsgsSent++
		st.BytesSent += b
		st.CommSeconds += c.world.model.Time(b)
	}
	select {
	case c.chanTo(dst) <- message{tag: tag, data: buf}:
	case <-time.After(30 * time.Second):
		panic(fmt.Sprintf("mpi: rank %d send to %d tag %d stalled (mailbox full)", c.rank, dst, tag))
	}
}

// Recv receives the next message from src with the given tag, buffering any
// other tags that arrive first.
func (c *Comm) Recv(src, tag int) []complex128 {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	// Check the out-of-order buffer first.
	for i, m := range c.pending {
		if c.pendSrc[i] == src && m.tag == tag {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			c.pendSrc = append(c.pendSrc[:i], c.pendSrc[i+1:]...)
			c.account(src, m)
			return m.data
		}
	}
	for {
		select {
		case m := <-c.chanFrom(src):
			if m.tag == tag {
				c.account(src, m)
				return m.data
			}
			c.pending = append(c.pending, m)
			c.pendSrc = append(c.pendSrc, src)
		case <-time.After(30 * time.Second):
			panic(fmt.Sprintf("mpi: rank %d recv from %d tag %d timed out", c.rank, src, tag))
		}
	}
}

func (c *Comm) account(src int, m message) {
	if c.world.realOf[src] == c.world.realOf[c.rank] {
		return // intra-node copy
	}
	b := int64(len(m.data)) * 16
	st := &c.world.stats[c.rank]
	st.MsgsRecv++
	st.BytesRecv += b
	st.CommSeconds += c.world.model.Time(b)
}

// Exchange swaps buffers with a peer rank (pairwise sendrecv).
func (c *Comm) Exchange(peer, tag int, data []complex128) []complex128 {
	if peer == c.rank {
		return append([]complex128(nil), data...)
	}
	// Lower rank sends first; the generous mailbox buffering makes the
	// ordering irrelevant for progress, but determinism helps debugging.
	c.Send(peer, tag, data)
	return c.Recv(peer, tag)
}

// Alltoallv sends bufs[dst] to every destination and returns the buffers
// received from every source (out[src]). bufs[rank] is passed through
// locally without cost.
func (c *Comm) Alltoallv(tag int, bufs [][]complex128) [][]complex128 {
	size := c.world.size
	if len(bufs) != size {
		panic(fmt.Sprintf("mpi: Alltoallv wants %d buffers, got %d", size, len(bufs)))
	}
	out := make([][]complex128, size)
	for dst := 0; dst < size; dst++ {
		if dst == c.rank {
			out[dst] = append([]complex128(nil), bufs[dst]...)
			continue
		}
		c.Send(dst, tag, bufs[dst])
	}
	for src := 0; src < size; src++ {
		if src == c.rank {
			continue
		}
		out[src] = c.Recv(src, tag)
	}
	return out
}

// Gather collects every rank's buffer at root (returned only on root,
// indexed by rank; nil elsewhere).
func (c *Comm) Gather(root, tag int, data []complex128) [][]complex128 {
	if c.rank != root {
		c.Send(root, tag, data)
		return nil
	}
	out := make([][]complex128, c.world.size)
	out[root] = append([]complex128(nil), data...)
	for src := 0; src < c.world.size; src++ {
		if src == root {
			continue
		}
		out[src] = c.Recv(src, tag)
	}
	return out
}

// Barrier blocks until every rank arrives.
func (c *Comm) Barrier() {
	w := c.world
	w.barrierMu.Lock()
	gen := w.barrierGen
	w.barrierCnt++
	if w.barrierCnt == w.size {
		w.barrierCnt = 0
		w.barrierGen++
		w.barrierCond.Broadcast()
	} else {
		for gen == w.barrierGen {
			w.barrierCond.Wait()
		}
	}
	w.barrierMu.Unlock()
}

// RecordCompute adds measured local compute seconds to this rank's stats.
func (c *Comm) RecordCompute(seconds float64) {
	c.world.stats[c.rank].ComputeSeconds += seconds
}

// MaxCommSeconds returns the slowest rank's modeled communication time.
func MaxCommSeconds(stats []Stats) float64 {
	m := 0.0
	for _, s := range stats {
		if s.CommSeconds > m {
			m = s.CommSeconds
		}
	}
	return m
}

// AvgCommSeconds returns the mean modeled communication time across ranks
// (the metric the paper's Fig. 7 reports).
func AvgCommSeconds(stats []Stats) float64 {
	if len(stats) == 0 {
		return 0
	}
	t := 0.0
	for _, s := range stats {
		t += s.CommSeconds
	}
	return t / float64(len(stats))
}

// TotalBytes returns the total bytes sent across all ranks.
func TotalBytes(stats []Stats) int64 {
	var b int64
	for _, s := range stats {
		b += s.BytesSent
	}
	return b
}
