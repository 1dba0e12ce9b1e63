// Package differential is the repository's one differential harness
// (docs/ROBUSTNESS.md, "The differential harness"): one generator draws a
// case — technique, window set, aggregate, order, disorder and lateness,
// batch carving, a mid-stream change, keys, TTL and spill budget — the
// benchutil factory builds the operator it names, and Run holds every run
// against internal/reference with reference.Check. Paired runs must also be
// identical emission sequences (reference.Diff): fleet ≡ unshared, batch ≡
// element, slice-major ≡ per-key, restore ≡ uninterrupted.
//
// The fuzz target FuzzOperatorVsReference decodes its input into one case;
// each package's randomized and named differential tests call Run on cases
// of their own.
package differential

import (
	"fmt"
	"math/rand"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/benchutil"
	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Kind is one window type the generator draws.
type Kind uint8

const (
	Tumbling Kind = iota
	Sliding
	Session
	Punctuation
	CountTumbling
	CountSliding
	CountInTime
	Correlated // a sliding window on a shared base, so a fleet factors
	kinds
)

// Spec is one generated window query. Definitions carry trigger cursors, so
// every operator gets fresh ones from query.
type Spec struct {
	Kind Kind
	A, B int64 // length and slide; gap; n and every
}

func isPunctuation(v stream.Tuple) bool { return v.V == 7 }

// query returns a fresh definition of the window and the oracle's query.
func (s Spec) query() (window.Definition, reference.Query[stream.Tuple]) {
	periodic := func(m stream.Measure, length, slide int64) (window.Definition, reference.Query[stream.Tuple]) {
		return window.Sliding(m, length, slide), reference.Query[stream.Tuple]{Kind: reference.Periodic, Measure: m, Length: length, Slide: slide}
	}
	switch s.Kind {
	case Tumbling:
		return periodic(stream.Time, s.A, s.A)
	case Sliding, Correlated:
		return periodic(stream.Time, s.A, s.B)
	case CountTumbling:
		return periodic(stream.Count, s.A, s.A)
	case CountSliding:
		return periodic(stream.Count, s.A, s.B)
	case Session:
		return window.Session[stream.Tuple](s.A), reference.Query[stream.Tuple]{Kind: reference.Session, Gap: s.A}
	case Punctuation:
		return window.Punctuation[stream.Tuple](isPunctuation), reference.Query[stream.Tuple]{Kind: reference.Punctuation, Pred: isPunctuation}
	default:
		return window.CountInTime[stream.Tuple](s.A, s.B), reference.Query[stream.Tuple]{Kind: reference.CountInTime, N: s.A, Every: s.B}
	}
}

// count: the query is periodic on the count measure.
func (s Spec) count() bool { return s.Kind == CountTumbling || s.Kind == CountSliding }

// measure is the extent measure the core sees: count-in-time windows are
// extents of ranks.
func (s Spec) measure() stream.Measure {
	if s.count() || s.Kind == CountInTime {
		return stream.Count
	}
	return stream.Time
}

// timePeriodic: tumbling or sliding on the time measure.
func (s Spec) timePeriodic() bool {
	return s.Kind == Tumbling || s.Kind == Sliding || s.Kind == Correlated
}

// agg is one aggregation function, both as the factory builds it and as the
// oracle folds it.
type agg struct {
	props aggregate.Props
	rows  func(benchutil.Technique, benchutil.Workload) (*benchutil.Rows, error)
	want  func(q reference.Query[stream.Tuple], id int, keyOf func(stream.Tuple) int64, events []stream.Event[stream.Tuple], final int64) []reference.Row
}

func aggOf[A any](f aggregate.Function[stream.Tuple, A, float64]) agg {
	return agg{
		props: f.Props(),
		rows: func(t benchutil.Technique, w benchutil.Workload) (*benchutil.Rows, error) {
			return benchutil.NewRows(t, f, w)
		},
		want: func(q reference.Query[stream.Tuple], id int, keyOf func(stream.Tuple) int64, events []stream.Event[stream.Tuple], final int64) []reference.Row {
			return reference.Windows(f, q, id, keyOf, events, final)
		},
	}
}

// aggs: an invertible, a non-invertible, an order-reading, a holistic and a
// non-commutative function.
var aggs = []agg{
	aggOf(aggregate.Sum(stream.Val)),
	aggOf(aggregate.Max(stream.Val)),
	aggOf(aggregate.Last(stream.Val)),
	aggOf(aggregate.Median(stream.Val)),
	aggOf[[]float64](positional{aggregate.Collect(stream.Val)}),
}

// positional is the catalogue's one non-commutative function, collect,
// lowered to a float that depends on the order of the values: Σ (i+1)·vᵢ.
type positional struct {
	aggregate.Function[stream.Tuple, []float64, []float64]
}

func (p positional) Lower(a []float64) float64 {
	var s float64
	for i, v := range p.Function.Lower(a) {
		s += float64(i+1) * v
	}
	return s
}

// Change is what happens once, mid-stream, at item At.
type Change uint8

const (
	NoChange    Change = iota
	AddQuery           // register Added
	RemoveQuery        // remove query Removed
	Snapshot           // snapshot, restore into a fresh operator, continue there
	changes
)

// Case is one generated differential case.
type Case struct {
	Tech     benchutil.Technique
	Specs    []Spec
	Agg      int // index into aggs
	Ordered  bool
	Disorder stream.Disorder
	// Period and Lag schedule the watermarks; Lateness is the operator's.
	Period, Lag, Lateness int64
	Keys                  int   // keys the events spread over
	Events                int   // tuples
	MaxStep               int64 // largest in-session step between tuples
	Seed                  int64
	Batch                 int // ProcessBatch size; 0 is the whole stream
	Change                Change
	At                    int // item index of Change
	Added                 Spec
	Removed               int
	TTL, Budget           int64 // keyed-ttl's expiry, keyed-spill's budget
	// Forcing marks the last Spec as there only to force a keyed case onto
	// one operator per key; its rows are not compared.
	Forcing bool
}

// harnessTechniques are the techniques a case may name, in draw order.
var harnessTechniques = []benchutil.Technique{
	benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.DABASlicing, benchutil.FleetSlicing, benchutil.Keyed, benchutil.KeyedTTL, benchutil.KeyedSpill,
	benchutil.Pairs, benchutil.Cutty, benchutil.Buckets, benchutil.TupleBuckets, benchutil.TupleBuffer, benchutil.AggTree,
}

// unshared maps each fleet technique to the slicing technique on the same
// store, which runs its queries unshared.
var unshared = map[benchutil.Technique]benchutil.Technique{
	benchutil.FleetSlicing: benchutil.LazySlicing, benchutil.FleetEager: benchutil.EagerSlicing, benchutil.FleetDABA: benchutil.DABASlicing,
}

// draw reads a case's choices from the fuzz input, one byte each in a fixed
// order; an exhausted input reads zeros.
type draw []byte

func (d *draw) byte() int64 {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int64(b)
}

func (d *draw) pick(n int) int { return int(d.byte()) % n }

// Decode draws a case: the technique, aggregate, order, window set, stream
// and watermarks, batch carving, one mid-stream change, and the keyed
// techniques' TTL and budget. The byte order is the corpus format
// (testdata/fuzz/FuzzOperatorVsReference); see docs/ROBUSTNESS.md.
func Decode(seed int64, shape []byte) Case { return decode(seed, shape, harnessTechniques) }

func decode(seed int64, shape []byte, techs []benchutil.Technique) Case {
	d := draw(shape)
	c := Case{Seed: seed}
	c.Tech = techs[d.pick(len(techs))]
	c.Agg = d.pick(len(aggs))
	c.Ordered = d.pick(2) == 1 || c.Tech.InOrderOnly()
	// Every extent is drawn in steps, so a case costs about as many windows
	// as it has tuples, whatever its scale.
	step := 1 + 4*d.byte()
	c.MaxStep = step
	for n := 1 + d.pick(4); len(c.Specs) < n; {
		c.Specs = append(c.Specs, drawSpec(&d, Kind(d.pick(int(kinds))), step, c.Specs))
	}
	if !c.Ordered {
		c.Disorder = stream.Disorder{Fraction: float64(1+d.byte()) / 512, MaxDelay: step * d.byte() / 32, Seed: seed}
	}
	c.Lag = 1 + step*d.byte()/32
	// Half the cases never evict (the lateness outlasts the stream).
	if l := d.byte(); l < 128 {
		c.Lateness = max(0, c.Disorder.MaxDelay-c.Lag) + step*l/32
	} else {
		c.Lateness = 1 << 40
	}
	c.Period = step * (1 + d.byte()/32)
	k := d.byte()
	c.Keys = 1 + int(k*k/16)
	if c.Tech == benchutil.KeyedSpill {
		// Every watermark spills and re-loads most keys: a few dozen
		// keys exercise that as well as thousands, at a fraction of the
		// time.
		c.Keys = 1 + int(k%32)
	}
	c.Events = 100 + 4*int(d.byte())
	c.Batch = []int{1, 7, 64, 0}[d.pick(4)]
	c.Change = Change(d.pick(int(changes)))
	c.At = int(d.byte()) * c.Events / 256
	c.Added = drawSpec(&d, []Kind{Tumbling, Sliding}[d.pick(2)], step, nil)
	c.Removed = d.pick(len(c.Specs))
	c.TTL = step * (1 + d.byte()/16)
	c.Budget = 1<<10 + 256*d.byte()
	return c
}

// drawSpec draws one window of kind k, its extents in units of step; a
// correlated window shares the base of the first correlated one before it.
func drawSpec(d *draw, k Kind, step int64, before []Spec) Spec {
	a, b := d.byte(), d.byte()
	switch k {
	case Tumbling:
		return Spec{k, step * (1 + a/16), 0}
	case Sliding:
		length := step * (1 + a/16)
		return Spec{k, length, max(1, length*(1+b%32)/16)}
	case Session:
		return Spec{k, 1 + step*a/64, 0}
	case Punctuation:
		return Spec{k, 0, 0}
	case CountTumbling:
		return Spec{k, 2 + a, 0}
	case CountSliding:
		return Spec{k, 2 + a, 1 + b/2}
	case CountInTime:
		return Spec{k, 1 + a/4, step * (1 + b/32)}
	default:
		base := step * (1 + a%4)
		for _, s := range before {
			if s.Kind == Correlated {
				base = s.B
				break
			}
		}
		length, slide := base*(1+b%8), base*(1+(b/8)%4)
		if length < slide {
			length, slide = slide, length
		}
		return Spec{k, length, slide}
	}
}

func (c Case) String() string {
	return fmt.Sprintf("%s/%s ordered=%v specs=%v disorder=%+v period=%d lag=%d lateness=%d keys=%d events=%d step=%d seed=%d batch=%d change=%d@%d added=%v removed=%d ttl=%d budget=%d",
		c.Tech, aggs[c.Agg].props.Name, c.Ordered, c.Specs, c.Disorder, c.Period, c.Lag, c.Lateness, c.Keys, c.Events, c.MaxStep, c.Seed, c.Batch, c.Change, c.At, c.Added, c.Removed, c.TTL, c.Budget)
}

// events draws the case's tuples in event-time order: ties, steps up to
// MaxStep, and now and then a gap of four to eight steps, so sessions open
// and close. Keys are skewed: low keys are hot, high keys rare.
func (c Case) events() []stream.Event[stream.Tuple] {
	rng := rand.New(rand.NewSource(c.Seed))
	ev := make([]stream.Event[stream.Tuple], c.Events)
	ts := int64(0)
	for i := range ev {
		switch r := rng.Intn(20); {
		case r < 2: // a tie
		case r < 17:
			ts += 1 + rng.Int63n(c.MaxStep)
		default:
			ts += c.MaxStep * (4 + rng.Int63n(5))
		}
		key := rng.Intn(c.Keys)
		if rng.Intn(2) == 0 {
			key = rng.Intn(1 + c.Keys/10)
		}
		ev[i] = stream.Event[stream.Tuple]{Time: ts, Seq: int64(i), Value: stream.Tuple{Key: int32(key), V: float64(rng.Intn(100))}}
	}
	return ev
}

func (c Case) fleet() bool { _, ok := unshared[c.Tech]; return ok }

func (c Case) keyed() bool {
	return c.Tech == benchutil.Keyed || c.Tech == benchutil.KeyedTTL || c.Tech == benchutil.KeyedSpill
}

func (c Case) workload(t testing.TB, specs []Spec) benchutil.Workload {
	w := benchutil.Workload{
		Ordered:  c.Ordered,
		Lateness: c.Lateness,
		Defs: func() []window.Definition {
			defs := make([]window.Definition, len(specs))
			for i, s := range specs {
				defs[i], _ = s.query()
			}
			return defs
		},
		IdleTTL:     c.TTL,
		SpillBudget: c.Budget,
	}
	if c.Tech == benchutil.KeyedSpill {
		w.SpillDir = t.TempDir()
	}
	return w
}

// rejects states the rules by which a technique refuses a query set, or ""
// if it accepts it. A rejected case is never dropped: the harness asserts
// the rejection.
func (c Case) rejects(specs []Spec) string {
	switch c.Tech {
	case benchutil.Pairs, benchutil.Cutty:
		for _, s := range specs {
			if !s.timePeriodic() {
				return "a window that is not periodic on the time measure"
			}
		}
	case benchutil.Buckets, benchutil.TupleBuckets:
		for _, s := range specs {
			if s.Kind == Punctuation || s.Kind == CountInTime {
				return "a window that is neither periodic nor a session"
			}
			if s.count() && !c.Ordered && c.Tech == benchutil.Buckets {
				return "a count window on an unordered stream without tuple buckets"
			}
		}
	case benchutil.TupleBuffer, benchutil.AggTree:
	default:
		for _, s := range specs {
			if !c.Ordered && s.measure() != specs[0].measure() {
				return "time and count measures mixed on an unordered stream"
			}
		}
	}
	return ""
}

// Gap names a region of the case space where the harness found the
// operator disagreeing with the oracle, and that it does not run until the
// code at fault is fixed; "" for a case it runs. ROADMAP item 8 lists a
// failing seed for each gap but the first, which is keyed-ttl's contract:
// expiry ends a key's stream, so its rows are the oracle's only while idle
// keys outlast every window and every window is periodic on time.
func (c Case) Gap() string {
	specs := c.Specs
	if c.Change == AddQuery {
		specs = append([]Spec{c.Added}, specs...)
	}
	var longest int64
	ranks, context, cit := false, false, false
	for _, s := range specs {
		cit = cit || s.Kind == CountInTime
		switch {
		case s.measure() == stream.Count:
			ranks = true
		case !s.timePeriodic():
			context = true
			longest = max(longest, s.A)
		default:
			longest = max(longest, s.A)
		}
	}
	fn := aggs[c.Agg].props
	baseline := c.Tech == benchutil.TupleBuffer || c.Tech == benchutil.AggTree || c.Tech == benchutil.Buckets || c.Tech == benchutil.TupleBuckets
	evicts := c.Lateness < 1<<40
	late := c.Disorder.MaxDelay >= c.Lag
	switch {
	case c.Tech == benchutil.KeyedTTL && (ranks || context || c.TTL+c.Lateness < longest):
		return "keyed-ttl's contract"
	case evicts && (ranks || context):
		return "eviction beside context-aware or count windows"
	case baseline && (ranks || evicts):
		return "baselines: eviction, count windows"
	case late && (ranks || context) && c.Change != NoChange:
		return "late tuples behind a change"
	case c.Change == AddQuery && (context || ranks):
		return "a query added mid-stream beside context-aware or count windows"
	case c.fleet() && (c.Change == AddQuery || c.Change == RemoveQuery):
		return "fleet: a query added or removed mid-stream"
	case late && cit:
		return "late tuples, count-in-time windows"
	case late && len(c.Specs) == 1 && c.Specs[0].Kind == Session && fn.Commutative:
		return "late tuples, a session alone on a store without tuples"
	case c.Ordered && context && ranks:
		return "ordered, a session or punctuation window beside count windows"
	case c.Tech == benchutil.DABASlicing && ranks && longest > 0:
		return "daba: time windows beside count windows"
	case (c.Tech == benchutil.Buckets || c.Tech == benchutil.TupleBuckets) && !c.Ordered && !fn.Commutative:
		return "buckets: a non-commutative function out of order"
	}
	return ""
}

// run feeds items through op: one call per item when bs is 1, ProcessBatch
// in runs of bs otherwise (0: as long as possible). Before item at it calls
// do, which may hand back the operator to continue on; no batch spans at.
// before is how many rows came out before item at.
func run(op *benchutil.Rows, items []stream.Item[stream.Tuple], bs, at int, do func(*benchutil.Rows) *benchutil.Rows) (rows []reference.Row, before int) {
	before = -1
	for i := 0; i < len(items); {
		if i == at {
			before = len(rows)
			if do != nil {
				op = do(op)
			}
		}
		j := len(items)
		if bs > 0 {
			j = min(i+bs, j)
		}
		if at > i && at < j {
			j = at
		}
		if bs == 1 {
			rows = append(rows, op.Element(items[i])...)
		} else {
			rows = append(rows, op.Batch(items[i:j])...)
		}
		i = j
	}
	return rows, before
}

// Run is the harness: build, run, check against the oracle, and check
// every paired identity the case's technique has.
func Run(t testing.TB, c Case) (op *benchutil.Rows, rows []reference.Row) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%v: panic: %v", c, r)
		}
	}()
	fn := aggs[c.Agg]
	op, err := fn.rows(c.Tech, c.workload(t, c.Specs))
	if why := c.rejects(c.Specs); why != "" {
		if err == nil {
			t.Fatalf("%v: accepted %s", c, why)
		}
		return nil, nil
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	events := c.events()
	items := stream.Prepare(stream.Watermarker{Period: c.Period, Lag: c.Lag}, stream.Apply(c.Disorder, events))
	at := min(c.At, len(items))

	// The change, applied identically on every run of the case.
	mid := c.Change
	if (mid == AddQuery || mid == RemoveQuery) && op.AddQuery == nil || mid == Snapshot && op.Snapshot == nil {
		mid = NoChange // the technique has no such operation
	}
	added, removed := -1, -1
	floor := stream.MinTime // the added query's windows start after it
	addRejected := ""
	if mid == AddQuery {
		addRejected = c.rejects(append(append([]Spec(nil), c.Specs...), c.Added))
		for _, it := range items[:at] {
			if it.Kind == stream.KindEvent {
				floor = max(floor, it.Event.Time)
			}
		}
	}
	do := func(tech benchutil.Technique) func(*benchutil.Rows) *benchutil.Rows {
		return func(op *benchutil.Rows) *benchutil.Rows {
			switch mid {
			case AddQuery:
				def, _ := c.Added.query()
				id, err := op.AddQuery(def)
				if (err != nil) != (addRejected != "") {
					t.Fatalf("%v: adding %v mid-stream: error %v, rejected by rule: %q", c, c.Added, err, addRejected)
				}
				if err == nil {
					added = id
				}
			case RemoveQuery:
				removed = c.Removed
				op.RemoveQuery(removed)
			case Snapshot:
				data, err := op.Snapshot()
				if err != nil {
					t.Fatalf("%v: snapshot: %v", c, err)
				}
				fresh := mustRows(t, c, tech)
				if err := fresh.Restore(data); err != nil {
					t.Fatalf("%v: restore: %v", c, err)
				}
				return fresh
			}
			return op
		}
	}
	elem, before := run(op, items, 1, at, func(o *benchutil.Rows) *benchutil.Rows { op = do(c.Tech)(o); return op })

	// The oracle: every query but a removed one over the whole stream, the
	// added one from its registration on.
	var keyOf func(stream.Tuple) int64
	if c.keyed() {
		keyOf = func(v stream.Tuple) int64 { return int64(v.Key) }
	}
	ignored := -1
	if c.Forcing {
		ignored = len(c.Specs) - 1
	}
	want := reference.Want{Final: stream.MaxTime, Recut: map[int]bool{}}
	for id, s := range c.Specs {
		if id != removed && id != ignored {
			_, q := s.query()
			want.Rows = append(want.Rows, fn.want(q, id, keyOf, events, stream.MaxTime)...)
			want.Recut[id] = q.Recut()
		}
	}
	if added >= 0 {
		_, q := c.Added.query()
		for _, r := range fn.want(q, added, keyOf, events, stream.MaxTime) {
			if r.Start > floor {
				want.Rows = append(want.Rows, r)
			}
		}
	}
	check := func(label string, rows []reference.Row) {
		t.Helper()
		var kept []reference.Row
		for _, r := range rows {
			if r.Query != removed && r.Query != ignored && (r.Query != added || r.Start > floor) {
				kept = append(kept, r)
			}
		}
		if v := reference.Check(kept, want); v.Failed() > 0 {
			t.Fatalf("%v: %s run: %v", c, label, v)
		}
	}
	check("element", elem)
	if removed >= 0 {
		for _, r := range elem[before:] {
			if r.Query == removed {
				t.Fatalf("%v: removed query %d emitted %+v after its removal", c, removed, r)
			}
		}
	}
	if mid == Snapshot {
		// restore ≡ uninterrupted: the run above restored at item at.
		plain, _ := run(mustRows(t, c, c.Tech), items, 1, -1, nil)
		same(t, c, "restore ≡ uninterrupted", plain, elem, nil)
	}

	// batch ≡ element: the same sequence for the core, per key for the
	// keyed operator. The fleet's batch contract is final values only
	// (factored completions flush at batch end), so its batch run is held
	// against the oracle alone.
	if c.Batch != 1 {
		batch, _ := run(mustRows(t, c, c.Tech), items, c.Batch, at, do(c.Tech))
		check(fmt.Sprintf("batch=%d", c.Batch), batch)
		switch {
		case c.keyed():
			same(t, c, "batch ≡ element", elem, batch, func(r reference.Row) int64 { return r.Key })
		case !c.fleet():
			same(t, c, "batch ≡ element", elem, batch, nil)
		}
	}

	// fleet ≡ unshared, per query.
	if u, ok := unshared[c.Tech]; ok {
		plain, _ := run(mustRows(t, c, u), items, 1, at, do(u))
		same(t, c, "fleet ≡ unshared", plain, elem, func(r reference.Row) int64 { return int64(r.Query) })
	}

	// slice-major ≡ per-key: a trailing session member moves every key onto
	// an operator of its own; on an in-order stream the rows of the other
	// queries are the same rows in the same order, n=0 gap rows included.
	if c.Tech == benchutil.Keyed && c.Disorder.Fraction == 0 && mid == NoChange {
		perKey := append(append([]Spec(nil), c.Specs...), Spec{Session, 700, 0})
		p, err := fn.rows(c.Tech, c.workload(t, perKey))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		all, _ := run(p, items, 1, -1, nil)
		var rows []reference.Row
		for _, r := range all {
			if r.Query < len(c.Specs) {
				rows = append(rows, r)
			}
		}
		same(t, c, "slice-major ≡ per-key", elem, rows, nil)
	}
	return op, elem
}

func mustRows(t testing.TB, c Case, tech benchutil.Technique) *benchutil.Rows {
	t.Helper()
	op, err := aggs[c.Agg].rows(tech, c.workload(t, c.Specs))
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return op
}

// same requires two runs to be identical (reference.Diff).
func same(t testing.TB, c Case, label string, want, got []reference.Row, by func(reference.Row) int64) {
	t.Helper()
	if d := reference.Diff(want, got, by); d != "" {
		t.Fatalf("%v: %s: %s", c, label, d)
	}
}

// Shape is a generator input drawn from seed, long enough for every choice.
func Shape(seed int64) []byte {
	b := make([]byte, 48)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// Draw returns the seed's case, or, if it falls in a gap, the first case
// after it, in steps of a large prime, that does not. techs, when given, are
// the techniques to draw from instead of every one, so a package's
// randomized test draws cases of its own.
func Draw(seed int64, techs ...benchutil.Technique) Case {
	if len(techs) == 0 {
		techs = harnessTechniques
	}
	for s := seed; ; s += 1_000_003 {
		if c := decode(s, Shape(s), techs); c.Gap() == "" {
			return c
		}
	}
}
