package main

import (
	"fmt"
	"net/http/httptest"
	"time"

	"hisvsim/internal/cluster"
	"hisvsim/internal/service"
)

// Cluster workload sizes (toy in parentheses).
const (
	fanoutQubits  = 13  // (6)
	fanoutTraj    = 256 // (128)
	fanoutSplit   = 64  // coordinator SplitTrajectories: ensembles at or above it fan out
	fanoutClasses = 2   // distinct ensemble seeds, each with a single-node reference
)

// fleet is a coordinator over in-process workers, each an ordinary service
// behind its own loopback listener.
type fleet struct {
	workers []*server
	coord   *cluster.Coordinator
	ts      *httptest.Server
	api     api
}

func newFleet(nWorkers, poolPerWorker int) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < nWorkers; i++ {
		w := newServer(service.Config{Workers: poolPerWorker})
		f.workers = append(f.workers, w)
		urls = append(urls, w.ts.URL)
	}
	coord, err := cluster.New(cluster.Config{
		Workers: urls, SplitTrajectories: fanoutSplit, PollWait: 10 * time.Second,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	f.ts = httptest.NewServer(cluster.NewHandler(coord))
	f.api = newAPI(f.ts.URL)
	return f, nil
}

func (f *fleet) close() {
	if f.ts != nil {
		f.api.hc.CloseIdleConnections()
		f.ts.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, w := range f.workers {
		w.close()
	}
}

// fanoutInstance sends whole trajectory ensembles through a coordinator
// that splits them across two one-worker nodes and merges the parts.
type fanoutInstance struct {
	fleet  *fleet
	single *server     // one node with the fleet's total worker count
	bodies [][]byte    // one per ensemble seed
	want   []*jobReply // the single node's answer to the identical request
	next   int
}

func (in *fanoutInstance) close() {
	in.fleet.close()
	in.single.close()
}

func setupClusterFanout(p params) (instance, error) {
	n, traj, shots := pick(p.toy, fanoutQubits, 6), pick(p.toy, fanoutTraj, 128), pick(p.toy, 1024, 128)
	nodes := min(2, p.procs)
	f, err := newFleet(nodes, 1)
	if err != nil {
		return nil, err
	}
	in := &fanoutInstance{fleet: f, single: newServer(service.Config{Workers: nodes})}
	for k := 0; k < fanoutClasses; k++ {
		body, err := noisyBody(n, traj, shots, p.subSeed(700+uint64(k)))
		var ref *jobReply
		if err == nil {
			ref, _, _, err = in.single.api.run(body)
		}
		if err != nil {
			in.close()
			return nil, fmt.Errorf("single-node reference: %w", err)
		}
		in.bodies, in.want = append(in.bodies, body), append(in.want, ref)
	}
	return in, nil
}

// round sends one ensemble through the coordinator. The merged counts, mean
// and standard error must equal the single node's, bit for bit.
func (in *fanoutInstance) round(col *collector, tr *tracer) {
	class := in.next % len(in.bodies)
	in.next++
	op := tr.newOp()
	root := tr.begin("op", op, 0)
	hs := tr.begin("http", op, root)
	reply, _, ms, err := in.fleet.api.run(in.bodies[class])
	tr.end(hs)
	tr.end(root)
	if err == nil {
		if err = sameEnsemble(in.want[class], reply); err != nil {
			err = fmt.Errorf("job %s: merged result differs from single node: %w", reply.ID, err)
		}
	}
	col.op(ms, err)
	if tr == nil || err != nil {
		return
	}
	// The coordinator's own plan/fanout/merge stages, as child spans.
	if t, err := in.fleet.api.trace(reply.ID); err == nil {
		attachStages(tr, op, hs, t.Stages)
		col.note("subjobs", float64(len(t.SubJobs)))
		retries := 0
		for _, sj := range t.SubJobs {
			retries += max(len(sj.Attempts)-1, 0)
		}
		col.note("retries", float64(retries))
	}
	// The identical request on one node with the same total workers.
	if _, _, single, err := in.single.api.run(in.bodies[class]); err == nil {
		col.note("single_ms", single)
	}
}
