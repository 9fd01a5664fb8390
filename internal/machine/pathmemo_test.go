package machine

import (
	"testing"

	"multicore/internal/sim"
	"multicore/internal/topology"
)

// refPath builds a path from scratch, independent of the memo: issue port,
// fabric link, then (for reads and copies) the route from src to the
// core's socket and src's controller, then (for writes and cross-node
// copies) the route from the core's socket to dst and dst's controller.
func refPath(m *Machine, kind pathKind, core topology.CoreID, src, dst topology.SocketID) []*sim.Resource {
	topo := m.Topo()
	sock := topo.SocketOf(core)
	route := func(a, b topology.SocketID) []*sim.Resource {
		var out []*sim.Resource
		for _, dl := range topo.Route(a, b) {
			dir := 0
			if dl.Reverse {
				dir = 1
			}
			out = append(out, m.links[dl.Index][dir])
		}
		return out
	}
	out := []*sim.Resource{m.issue[core]}
	if m.fabs != nil {
		out = append(out, m.fabs[sock][topo.DieOf(core)])
	}
	switch kind {
	case readPath:
		out = append(append(out, route(src, sock)...), m.mcs[src])
	case writePath:
		out = append(append(out, route(sock, dst)...), m.mcs[dst])
	case copyPath:
		out = append(append(out, route(src, sock)...), m.mcs[src])
		if dst != src {
			out = append(append(out, route(sock, dst)...), m.mcs[dst])
		}
	}
	return out
}

func samePath(a, b []*sim.Resource) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPathMemo checks the memoized ReadPath, WritePath and CopyPath on
// every registered machine and every (core, src, dst): each equals a
// fresh construction, is clipped (cap == len) so an append copies, stays
// unchanged after a caller appends to it the way internal/mpi splices in
// NIC resources, and repeat lookups do not allocate.
func TestPathMemo(t *testing.T) {
	names := map[string]bool{}
	for _, n := range Names() {
		names[n] = true
	}
	for _, want := range []string{"tiger", "dmz", "longs", "hybrid16", "epyc2x4"} {
		if !names[want] {
			t.Fatalf("machine %q not registered (have %v)", want, Names())
		}
	}
	extra := sim.NewResource("nic", 1)
	for _, name := range Names() {
		m := New(sim.NewEngine(), Lookup(name))
		topo := m.Topo()
		get := func(kind pathKind, c topology.CoreID, s, d topology.SocketID) []*sim.Resource {
			switch kind {
			case readPath:
				return m.ReadPath(c, s)
			case writePath:
				return m.WritePath(c, d)
			}
			return m.CopyPath(c, s, d)
		}
		for c := 0; c < topo.NumCores(); c++ {
			core := topology.CoreID(c)
			for s := 0; s < topo.NumSockets; s++ {
				for d := 0; d < topo.NumSockets; d++ {
					src, dst := topology.SocketID(s), topology.SocketID(d)
					for _, kind := range []pathKind{readPath, writePath, copyPath} {
						if kind == readPath && d != s || kind == writePath && s != d {
							continue // single-node paths: one key per node
						}
						want := refPath(m, kind, core, src, dst)
						p := get(kind, core, src, dst)
						if !samePath(p, want) {
							t.Fatalf("%s kind %d core %d %d->%d: memo differs from fresh build", name, kind, c, s, d)
						}
						if cap(p) != len(p) {
							t.Fatalf("%s kind %d core %d %d->%d: cap %d != len %d", name, kind, c, s, d, cap(p), len(p))
						}
						_ = append(p, extra)
						_ = append(get(kind, core, src, dst), extra, extra)
						if again := get(kind, core, src, dst); !samePath(again, want) {
							t.Fatalf("%s kind %d core %d %d->%d: append by a caller changed the memo", name, kind, c, s, d)
						}
						if n := testing.AllocsPerRun(10, func() { get(kind, core, src, dst) }); n != 0 {
							t.Fatalf("%s kind %d core %d %d->%d: repeat lookup allocates %v", name, kind, c, s, d, n)
						}
					}
				}
			}
		}
	}
}
