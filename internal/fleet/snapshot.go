package fleet

import (
	"fmt"
	"sort"

	"scotty/internal/checkpoint"
	"scotty/internal/core"
	"scotty/internal/fat"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// fleetMagic versions the fleet snapshot envelope (the embedded core payload
// carries its own validation).
const fleetMagic = "scotty-fleet-v1"

// Snapshot serializes the fleet's complete state: the logical→physical
// mapping, every spec's execution mode and factored trigger cursor, the pane
// rings, the physical registration order, and — embedded — the core
// aggregator's snapshot. Restoring the result into a freshly constructed
// fleet reproduces the operator exactly for any suffix stream, including
// fleets whose query set was changed at runtime: parametric windows
// (sliding/tumbling/session) are rebuilt from their canonical form, so only
// non-parametric definitions (punctuation, custom) must also be registered on
// the restore target.
func (fl *Fleet[V, A, Out]) Snapshot() ([]byte, error) {
	fl.planIfDue()
	aggC, err := checkpoint.For[A]()
	if err != nil {
		return nil, err
	}
	coreBytes, err := fl.ag.Snapshot()
	if err != nil {
		return nil, err
	}
	enc := checkpoint.NewEncoder()
	enc.String(fleetMagic)
	enc.Int(fl.nextID)
	enc.Int(fl.nOpaque)
	// Logical and physical ids are handed out in ascending order, so sorted
	// ids are registration order.
	order := make([]int, 0, len(fl.logical))
	for id := range fl.logical {
		order = append(order, id)
	}
	physOrder := make([]int, 0, len(fl.byPhys)+len(fl.groups))
	for id := range fl.byPhys {
		physOrder = append(physOrder, id)
	}
	for _, g := range fl.groups {
		physOrder = append(physOrder, g.physID)
	}
	sort.Ints(order)
	sort.Ints(physOrder)
	enc.Int(len(order))
	for _, id := range order {
		enc.Int(id)
	}

	specIdx := make(map[*spec[A]]int, len(fl.specs))
	enc.Int(len(fl.specs))
	for i, sp := range fl.specs {
		specIdx[sp] = i
		enc.Byte(sp.canon.kind)
		enc.Byte(byte(sp.canon.measure))
		enc.Int64(sp.canon.a)
		enc.Int64(sp.canon.b)
		enc.Int(sp.canon.opaque)
		enc.Int(len(sp.subs))
		for _, s := range sp.subs {
			enc.Int(s.id)
			enc.Int64(s.floor)
		}
		enc.Byte(byte(sp.mode))
		enc.Int64(int64(sp.physID))
		var nextEnd int64 // the factored cursor, in time; unused otherwise
		if sp.mode == modeFactored {
			nextEnd = sp.nextEnd()
		}
		enc.Int64(nextEnd)
		enc.Int64(sp.lastEnd)
		enc.Int64(sp.minNextEnd)
		enc.Int64(sp.directFold)
	}

	enc.Int(len(fl.groups))
	for _, g := range fl.groups {
		enc.Int64(g.factor)
		enc.Int64(int64(g.physID))
		enc.Int64(g.base)
		enc.Int64(g.maxLen)
		enc.Int(len(g.specs))
		for _, sp := range g.specs {
			enc.Int(specIdx[sp])
		}
		enc.Int(g.tree.Len())
		for i := 0; i < g.tree.Len(); i++ {
			p := g.tree.Get(i)
			aggC.Encode(enc, p.a)
			enc.Int64(p.n)
		}
	}

	enc.Int(len(physOrder))
	for _, id := range physOrder {
		enc.Int(id)
	}
	enc.Bytes(coreBytes)
	return enc.Seal(), nil
}

// Restore loads a fleet snapshot. The receiver must be freshly constructed
// (no tuples, no watermark) with the same aggregate function and Options; the
// snapshot's logical query set replaces the receiver's. Window definitions
// the codec can rebuild (sliding/tumbling/session) need not be pre-registered
// on the receiver — dynamic fleets restore to their runtime shape — but
// opaque definitions are matched against the receiver's registrations by
// position in the registration sequence and must be present.
func (fl *Fleet[V, A, Out]) Restore(data []byte) error {
	if !fl.virgin() {
		return fmt.Errorf("%w: restore target has already ingested data", core.ErrSnapshotMismatch)
	}
	aggC, err := checkpoint.For[A]()
	if err != nil {
		return err
	}
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}
	if magic := dec.String(); dec.Err() == nil && magic != fleetMagic {
		return fmt.Errorf("%w: not a fleet snapshot (header %q)", core.ErrSnapshotMismatch, magic)
	}

	nextID := dec.Int()
	nOpaque := dec.Int()
	for i, n := 0, dec.Count(); i < n; i++ {
		dec.Int() // logical ids in registration order: the specs' subscriber lists carry them too
	}

	ns := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	specs := make([]*spec[A], 0, ns)
	nextEnds := make([]int64, 0, ns) // factored cursors, in panes once the group is known
	for i := 0; i < ns; i++ {
		sp := &spec[A]{}
		sp.canon = canon{
			kind:    dec.Byte(),
			measure: stream.Measure(dec.Byte()),
			a:       dec.Int64(),
			b:       dec.Int64(),
			opaque:  dec.Int(),
		}
		for j, n := 0, dec.Count(); j < n; j++ {
			sp.subs = append(sp.subs, sub{id: dec.Int(), floor: dec.Int64()})
		}
		sp.mode = mode(dec.Byte())
		sp.physID = int(dec.Int64())
		nextEnds = append(nextEnds, dec.Int64())
		sp.lastEnd = dec.Int64()
		sp.minNextEnd = dec.Int64()
		sp.directFold = dec.Int64()
		if err := dec.Err(); err != nil {
			return err
		}
		if err := fl.resolveDef(sp); err != nil {
			return err
		}
		specs = append(specs, sp)
	}

	ng := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	groups := make([]*group[A], 0, ng)
	nDraining := 0
	for i := 0; i < ng; i++ {
		g := &group[A]{
			factor: dec.Int64(),
			physID: int(dec.Int64()),
			base:   dec.Int64(),
			maxLen: dec.Int64(),
		}
		g.def = window.Tumbling(stream.Time, g.factor)
		for j, n := 0, dec.Count(); j < n; j++ {
			si := dec.Int()
			if dec.Err() != nil {
				break
			}
			if si < 0 || si >= len(specs) {
				return fmt.Errorf("%w: group member index out of range", checkpoint.ErrCorruptSnapshot)
			}
			g.specs = append(g.specs, specs[si])
			specs[si].join(g)
			specs[si].next = nextEnds[si] / g.factor
		}
		g.tree = fat.New(func(x, y pane[A]) pane[A] {
			return pane[A]{a: fl.f.Combine(x.a, y.a), n: x.n + y.n}
		}, pane[A]{a: fl.f.Identity()})
		for j, n := 0, dec.Count(); j < n; j++ {
			a, err := aggC.Decode(dec)
			if err != nil {
				return err
			}
			g.tree.Push(pane[A]{a: a, n: dec.Int64()})
		}
		groups = append(groups, g)
	}

	physOrder := make([]int, 0, 16)
	for i, n := 0, dec.Count(); i < n; i++ {
		physOrder = append(physOrder, dec.Int())
	}
	coreBytes := dec.Bytes()
	if err := dec.Err(); err != nil {
		return err
	}

	// Rebuild the physical layout on a fresh core in the snapshotted
	// registration order, then load the core state into it.
	ag := core.New(fl.f, fl.opts.Options)
	byPhys := make(map[int]*spec[A])
	for _, pid := range physOrder {
		var def window.Definition
		for _, sp := range specs {
			if sp.physID == pid && sp.mode != modeFactored {
				def = sp.def
				byPhys[pid] = sp
				if sp.mode == modeDraining {
					nDraining++
				}
				break
			}
		}
		if def == nil {
			for _, g := range groups {
				if g.physID == pid {
					def = g.def
					break
				}
			}
		}
		if def == nil {
			return fmt.Errorf("%w: physical query %d has no owner", checkpoint.ErrCorruptSnapshot, pid)
		}
		if err := ag.AddQueryWithID(pid, def); err != nil {
			return fmt.Errorf("%w: %v", core.ErrSnapshotMismatch, err)
		}
	}
	if err := ag.Restore(coreBytes); err != nil {
		return err
	}

	// Commit: swap the rebuilt state in and re-attach the pane taps.
	fl.ag = ag
	fl.nextID = nextID
	fl.nOpaque = nOpaque
	fl.specs = specs
	fl.groups = groups
	fl.byPhys = byPhys
	fl.dirty = false // the receiver's own registrations are replaced, their plan with them
	fl.nDraining = nDraining
	fl.logical = make(map[int]*spec[A])
	fl.byCanon = make(map[canon]*spec[A])
	logicalTotal := 0
	for _, sp := range specs {
		fl.byCanon[sp.canon] = sp
		for _, sb := range sp.subs {
			fl.logical[sb.id] = sp
		}
		logicalTotal += len(sp.subs)
	}
	fl.byFactor = make(map[int64]*group[A], len(groups))
	for _, g := range groups {
		fl.byFactor[g.factor] = g
		fl.ag.SetPartialTap(g.physID, fl.tapFor(g))
	}
	fl.m.logical.Set(int64(logicalTotal))
	fl.refreshSchedule()
	fl.pumped = fl.ag.Watermark()
	return nil
}

// resolveDef rebuilds a restored spec's window definition. Parametric kinds
// are reconstructed outright; opaque kinds are looked up among the receiver's
// own registrations (same construction sequence, same opaque sequence
// numbers).
func (fl *Fleet[V, A, Out]) resolveDef(sp *spec[A]) error {
	switch sp.canon.kind {
	case canonPeriodic:
		sp.setPeriodic(sp.canon.a, sp.canon.b)
		sp.eligible = sp.canon.measure == stream.Time && !fl.opts.NoRewrite
		sp.def = window.Sliding(sp.canon.measure, sp.length, sp.slide)
		return nil
	case canonSession:
		sp.def = window.Session[V](sp.canon.a)
		return nil
	case canonOpaque:
		if old, ok := fl.byCanon[sp.canon]; ok {
			sp.def = old.def
			return nil
		}
		return fmt.Errorf("%w: snapshot carries a non-parametric window (measure %v, #%d) the restore target has not registered",
			core.ErrSnapshotMismatch, sp.canon.measure, sp.canon.opaque)
	}
	return fmt.Errorf("%w: unknown window kind %d", checkpoint.ErrCorruptSnapshot, sp.canon.kind)
}
