package core

import (
	"repro/internal/arch"
	"repro/internal/embed"
	"repro/internal/netlist"
	"repro/internal/rtree"
	"repro/internal/timing"
)

// apply materializes a chosen embedding on the netlist and placement.
// For each internal tree node, top-down:
//
//   - If the target slot holds a cell logically equivalent to the
//     node's cell that is not the cell itself, the node is *implicitly
//     unified* with it: the parent takes its signal from that cell and
//     the whole subtree below the node is skipped (its improvements are
//     subsumed by the existing cell's fanin cone).
//   - If the target is the cell's own current slot, the cell stays and
//     its fanin pins are rewired to the realized children.
//   - Otherwise a replica is created at the target slot, wired to the
//     realized children on tree pins and to the original fanins
//     elsewhere — the replication-tree wiring rule of Section III.
//
// Originals that lose their last fanout are deleted as redundant.
// It returns the cells newly created by replication.
func (e *Engine) apply(rt *rtree.RTree, ep *rtree.EmbedProblem, g *embed.Graph, emb *embed.Embedding, sel embed.FrontierSol, st *Stats) []netlist.CellID {
	nl := e.Netlist
	var created []netlist.CellID
	// touched collects drivers that may have become redundant.
	var touched []netlist.CellID

	// realize returns the cell that implements tree node idx at its
	// chosen location, recursing into children when (and only when)
	// the node materializes fresh logic or stays in place.
	var realize func(idx int32) netlist.CellID
	realize = func(idx int32) netlist.CellID {
		node := &rt.Nodes[idx]
		cell := node.Cell
		if node.IsLeaf() {
			return cell
		}
		target := g.LocOf(emb.NodeVertex[idx])
		cur := e.Placement.Loc(cell)
		if target != cur {
			// Implicit unification with an existing equivalent cell?
			for _, other := range e.Placement.At(target) {
				if other != cell && nl.Equivalent(other, cell) {
					return other
				}
			}
		}
		var impl netlist.CellID
		if target == cur {
			impl = cell // stays put; children may still improve
		} else {
			rep := nl.Replicate(cell)
			e.Placement.Place(rep.ID, target)
			created = append(created, rep.ID)
			st.Replicated++
			impl = rep.ID
		}
		// Wire realized children onto the implementation's tree pins.
		for _, ci := range node.Children {
			child := &rt.Nodes[ci]
			rc := realize(ci)
			want := nl.Cell(rc).Out
			if nl.Cell(impl).Fanin[child.Pin] != want {
				old := nl.Cell(impl).Fanin[child.Pin]
				nl.Connect(impl, int(child.Pin), want)
				if old != netlist.None {
					touched = append(touched, nl.Net(old).Driver)
				}
			}
		}
		return impl
	}

	// Root: rewire the sink's pins to the realized top-level cells,
	// and relocate the sink itself in FF-relocation mode.
	root := rt.Root()
	rootTarget := g.LocOf(emb.NodeVertex[0])
	if rootTarget != e.Placement.Loc(root.Cell) {
		e.Placement.Place(root.Cell, rootTarget)
	}
	for _, ci := range root.Children {
		child := &rt.Nodes[ci]
		rc := realize(ci)
		want := nl.Cell(rc).Out
		if nl.Cell(root.Cell).Fanin[child.Pin] != want {
			old := nl.Cell(root.Cell).Fanin[child.Pin]
			nl.Connect(root.Cell, int(child.Pin), want)
			if old != netlist.None {
				touched = append(touched, nl.Net(old).Driver)
			}
		}
	}

	// Sweep originals (and any rewired-away drivers) that lost their
	// last fanout.
	for _, id := range touched {
		if nl.Alive(id) {
			e.sweepRedundant(id, st)
		}
	}
	for _, id := range rt.Cells() {
		if nl.Alive(id) {
			e.sweepRedundant(id, st)
		}
	}
	// Drop created cells that were themselves swept (possible when a
	// later sibling unified past them).
	live := created[:0]
	for _, id := range created {
		if nl.Alive(id) {
			live = append(live, id)
		}
	}
	return live
}

// sweepRedundant removes a cell if it drives nothing, unplacing every
// cell the recursive deletion removes.
func (e *Engine) sweepRedundant(id netlist.CellID, st *Stats) {
	nl := e.Netlist
	if nl.Cell(id).Kind != netlist.LUT {
		return
	}
	if len(nl.Net(nl.Cell(id).Out).Sinks) > 0 {
		return
	}
	// DeleteIfRedundant recurses; collect the victims by diffing
	// aliveness of the cell's fanin cone before/after.
	victims := e.collectRedundant(id)
	deleted := nl.DeleteIfRedundant(id)
	st.Unified += deleted
	for _, v := range victims {
		if !nl.Alive(v) {
			e.Placement.Remove(v)
		}
	}
}

// collectRedundant lists cells that could be removed by a recursive
// delete rooted at id (id plus its transitive fanin drivers).
func (e *Engine) collectRedundant(id netlist.CellID) []netlist.CellID {
	nl := e.Netlist
	var out []netlist.CellID
	seen := map[netlist.CellID]bool{}
	var walk func(netlist.CellID)
	walk = func(c netlist.CellID) {
		if seen[c] || !nl.Alive(c) {
			return
		}
		seen[c] = true
		out = append(out, c)
		for _, net := range nl.Cell(c).Fanin {
			if net != netlist.None {
				walk(nl.Net(net).Driver)
			}
		}
	}
	walk(id)
	return out
}

// postUnify is the Section V-C postprocess: for every newly created
// replica, examine its logically equivalent cells; any fanout of an
// equivalent cell that would see an equal-or-better arrival from the
// replica is reassigned to it. Equivalents left without fanouts are
// deleted (recursively). Reassignment also happens when the move
// degrades that input's arrival but stays within the current critical
// period — the paper's aggressive clean-up for high-density circuits
// (Section VII-B).
func (e *Engine) postUnify(a *timing.Analysis, created []netlist.CellID, st *Stats) {
	nl := e.Netlist
	for _, rep := range created {
		if !nl.Alive(rep) {
			continue
		}
		repLoc := e.Placement.Loc(rep)
		repArr := arrOf(a, rep)
		for _, other := range nl.EquivClass(rep) {
			if other == rep || !nl.Alive(other) {
				continue
			}
			otherLoc := e.Placement.Loc(other)
			otherArr := arrOf(a, other)
			sinks := append([]netlist.Pin(nil), nl.Net(nl.Cell(other).Out).Sinks...)
			for _, p := range sinks {
				sLoc := e.Placement.Loc(p.Cell)
				oldT := otherArr + e.Delay.WireDelay(arch.Dist(otherLoc, sLoc))
				newT := repArr + e.Delay.WireDelay(arch.Dist(repLoc, sLoc))
				ok := newT <= oldT+1e-9
				if !ok {
					// Allowed if the degraded arrival still cannot
					// push the slowest path through this input past
					// the current period.
					headroom := a.Period - throughVia(nl, a, e.Delay, p.Cell, oldT)
					ok = newT-oldT <= headroom-1e-9
				}
				if ok {
					nl.MoveSink(p, rep)
				}
			}
			if len(nl.Net(nl.Cell(other).Out).Sinks) == 0 {
				e.sweepRedundant(other, st)
			}
		}
	}
}

// throughVia estimates the slowest source-to-sink path entering cell v
// through an input arriving at time inArr.
func throughVia(nl *netlist.Netlist, a *timing.Analysis, dm arch.DelayModel, v netlist.CellID, inArr float64) float64 {
	c := nl.Cell(v)
	t := inArr + timing.Intrinsic(dm, c)
	if c.IsSink() {
		return t
	}
	if int(v) < len(a.Down) && a.Down[v] > 0 {
		return inArr + dm.LUTDelay + a.Down[v]
	}
	return t
}

// arrOf reads arrival defensively for cells newer than the analysis.
func arrOf(a *timing.Analysis, id netlist.CellID) float64 {
	if int(id) < len(a.Arr) {
		return a.Arr[id]
	}
	return 0
}
