package aggregate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scotty/internal/rle"
	"scotty/internal/stream"
)

func ident(v float64) float64 { return v }

// randEvents builds random events with occasional timestamp ties.
func randEvents(rng *rand.Rand, n int) []stream.Event[float64] {
	ev := make([]stream.Event[float64], n)
	ts := int64(0)
	for i := range ev {
		if rng.Intn(4) > 0 {
			ts += int64(1 + rng.Intn(5))
		}
		ev[i] = stream.Event[float64]{Time: ts, Seq: int64(i), Value: float64(1 + rng.Intn(50))}
	}
	return ev
}

func approxF(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// eqOut compares final aggregates structurally, with floating-point
// tolerance on every float64 it encounters (struct fields, slice elements,
// nested composition pairs/triples included).
func eqOut(a, b any) bool {
	return approxDeep(reflect.ValueOf(a), reflect.ValueOf(b))
}

func approxDeep(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64, reflect.Float32:
		return approxF(a.Float(), b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !approxDeep(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !approxDeep(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return approxDeep(a.Elem(), b.Elem())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// checkProps verifies the declared algebraic properties of a function
// behaviorally over many random event sets: identity laws, associativity,
// commutativity iff declared, invertibility iff declared, the Accumulate
// fast path, and soundness of the Unaffected optimization. It also checks
// the declared Kind against the partial's type (Gray et al.): a
// distributive partial is the final aggregate, and a partial that grows
// with its input — a slice or a map — is holistic.
func checkProps[A, Out any](t *testing.T, f Function[float64, A, Out]) {
	t.Helper()
	props := f.Props()
	if got := Invertible(f); got != props.Invertible {
		t.Fatalf("%s: Invertible()=%v but Props.Invertible=%v", props.Name, got, props.Invertible)
	}
	partial, out := reflect.TypeOf((*A)(nil)).Elem(), reflect.TypeOf((*Out)(nil)).Elem()
	if props.Kind == Distributive && partial != out {
		t.Fatalf("%s: Distributive, but partial %v is not the output type %v", props.Name, partial, out)
	}
	if k := partial.Kind(); (k == reflect.Slice || k == reflect.Map) && props.Kind != Holistic {
		t.Fatalf("%s: partial %v grows with its input, so Kind must be Holistic", props.Name, partial)
	}
	rng := rand.New(rand.NewSource(99))
	lower := func(a A) any { return f.Lower(a) }

	for round := 0; round < 60; round++ {
		ev := randEvents(rng, 3+rng.Intn(12))
		parts := make([]A, len(ev))
		for i, e := range ev {
			parts[i] = f.Lift(e)
		}

		// Identity laws.
		x := parts[0]
		if !eqOut(lower(f.Combine(f.Identity(), x)), lower(x)) {
			t.Fatalf("%s: identity ⊕ x != x", props.Name)
		}
		if !eqOut(lower(f.Combine(x, f.Identity())), lower(x)) {
			t.Fatalf("%s: x ⊕ identity != x", props.Name)
		}

		// Associativity: left fold == right fold == random tree fold.
		left := f.Identity()
		for _, p := range parts {
			left = f.Combine(left, p)
		}
		right := f.Identity()
		for i := len(parts) - 1; i >= 0; i-- {
			right = f.Combine(parts[i], right)
		}
		if !eqOut(lower(left), lower(right)) {
			t.Fatalf("%s: not associative (left fold != right fold)", props.Name)
		}

		// Commutativity iff declared. (Non-commutative functions must
		// actually differ on some order, tested separately.)
		if props.Commutative {
			perm := rng.Perm(len(parts))
			shuffled := f.Identity()
			for _, i := range perm {
				shuffled = f.Combine(shuffled, parts[i])
			}
			if !eqOut(lower(left), lower(shuffled)) {
				t.Fatalf("%s: declared commutative but order changed the result", props.Name)
			}
		}

		// Invertibility: (fold(S) ⊖ fold(T)) == fold(S\T) for a suffix T.
		if props.Invertible {
			inv := any(f).(Inverter[A])
			cut := rng.Intn(len(parts))
			prefix := f.Identity()
			for _, p := range parts[:cut] {
				prefix = f.Combine(prefix, p)
			}
			suffix := f.Identity()
			for _, p := range parts[cut:] {
				suffix = f.Combine(suffix, p)
			}
			if !eqOut(lower(inv.Invert(left, suffix)), lower(prefix)) {
				t.Fatalf("%s: invert law violated", props.Name)
			}
		}

		// Accumulate fast path == Combine(a, Lift(e)).
		acc := f.Identity()
		cmb := f.Identity()
		for _, e := range ev {
			acc = Add(f, acc, e)
			cmb = f.Combine(cmb, f.Lift(e))
		}
		if !eqOut(lower(acc), lower(cmb)) {
			t.Fatalf("%s: Accumulate path diverges from Combine path", props.Name)
		}

		// Unaffected soundness: a removal declared unaffected must leave
		// the lowered aggregate unchanged.
		if shr, ok := any(f).(interface {
			Unaffected(a A, e stream.Event[float64]) bool
		}); ok {
			i := rng.Intn(len(ev))
			full := Recompute(f, ev)
			if shr.Unaffected(full, ev[i]) {
				without := append(append([]stream.Event[float64]{}, ev[:i]...), ev[i+1:]...)
				if !eqOut(lower(Recompute(f, without)), lower(full)) {
					t.Fatalf("%s: Unaffected claimed but removal changed the aggregate", props.Name)
				}
			}
		}
	}
}

func TestFunctionProperties(t *testing.T) {
	t.Run("count", func(t *testing.T) { checkProps(t, Count[float64]()) })
	t.Run("sum", func(t *testing.T) { checkProps(t, Sum(ident)) })
	t.Run("naivesum", func(t *testing.T) { checkProps(t, NaiveSum(ident)) })
	t.Run("mean", func(t *testing.T) { checkProps(t, Mean(ident)) })
	t.Run("geomean", func(t *testing.T) { checkProps(t, GeoMean(ident)) })
	t.Run("variance", func(t *testing.T) { checkProps(t, Variance(ident)) })
	t.Run("stddev", func(t *testing.T) { checkProps(t, StdDev(ident)) })
	t.Run("min", func(t *testing.T) { checkProps(t, Min(ident)) })
	t.Run("max", func(t *testing.T) { checkProps(t, Max(ident)) })
	t.Run("mincount", func(t *testing.T) { checkProps(t, MinCount(ident)) })
	t.Run("maxcount", func(t *testing.T) { checkProps(t, MaxCount(ident)) })
	t.Run("argmin", func(t *testing.T) { checkProps(t, ArgMin(ident)) })
	t.Run("argmax", func(t *testing.T) { checkProps(t, ArgMax(ident)) })
	t.Run("first", func(t *testing.T) { checkProps(t, First(ident)) })
	t.Run("last", func(t *testing.T) { checkProps(t, Last(ident)) })
	t.Run("m4", func(t *testing.T) { checkProps(t, M4(ident)) })
	t.Run("collect", func(t *testing.T) { checkProps(t, Collect(ident)) })
	t.Run("median", func(t *testing.T) { checkProps(t, Median(ident)) })
	t.Run("median-no-rle", func(t *testing.T) { checkProps(t, MedianNaive(ident)) })
	t.Run("p90", func(t *testing.T) { checkProps(t, Percentile(0.9, ident)) })
	t.Run("countdistinct", func(t *testing.T) { checkProps(t, CountDistinct(ident)) })
}

func TestCollectIsActuallyNonCommutative(t *testing.T) {
	f := Collect(ident)
	a := f.Lift(stream.Event[float64]{Time: 1, Value: 1})
	b := f.Lift(stream.Event[float64]{Time: 2, Value: 2})
	ab := f.Combine(a, b)
	ba := f.Combine(b, a)
	if reflect.DeepEqual(ab, ba) {
		t.Fatal("collect must be order-sensitive")
	}
}

func TestConcreteValues(t *testing.T) {
	ev := []stream.Event[float64]{
		{Time: 1, Seq: 0, Value: 4},
		{Time: 2, Seq: 1, Value: 1},
		{Time: 2, Seq: 2, Value: 9},
		{Time: 5, Seq: 3, Value: 4},
	}
	if got := Sum(ident).Lower(Recompute(Sum(ident), ev)); got != 18 {
		t.Errorf("sum = %v", got)
	}
	if got := Mean(ident).Lower(Recompute(Mean(ident), ev)); got != 4.5 {
		t.Errorf("mean = %v", got)
	}
	if got := Min(ident).Lower(Recompute(Min(ident), ev)); got != 1 {
		t.Errorf("min = %v", got)
	}
	mc := Recompute(MinCount(ident), ev)
	if mc.V != 1 || mc.N != 1 {
		t.Errorf("mincount = %+v", mc)
	}
	xc := Recompute(MaxCount(ident), ev)
	if xc.V != 9 || xc.N != 1 {
		t.Errorf("maxcount = %+v", xc)
	}
	am := Recompute(ArgMax(ident), ev)
	if am.Time != 2 || am.Seq != 2 {
		t.Errorf("argmax = %+v", am)
	}
	if got := First(ident).Lower(Recompute(First(ident), ev)); got != 4 {
		t.Errorf("first = %v", got)
	}
	if got := Last(ident).Lower(Recompute(Last(ident), ev)); got != 4 {
		t.Errorf("last = %v", got)
	}
	m4 := M4(ident).Lower(Recompute(M4(ident), ev))
	if m4.Min != 1 || m4.Max != 9 || m4.First != 4 || m4.Last != 4 {
		t.Errorf("m4 = %+v", m4)
	}
	if got := Median(ident).Lower(Recompute(Median(ident), ev)); got != 4 {
		t.Errorf("median = %v", got)
	}
	if got := CountDistinct(ident).Lower(Recompute(CountDistinct(ident), ev)); got != 3 {
		t.Errorf("countdistinct = %v", got)
	}
	if got := StdDev(ident).Lower(Recompute(StdDev(ident), ev)); !approxF(got, math.Sqrt(8.25)) {
		t.Errorf("stddev = %v", got)
	}
}

func TestEmptyAggregates(t *testing.T) {
	if !math.IsNaN(Mean(ident).Lower(Mean(ident).Identity())) {
		t.Error("mean of empty should be NaN")
	}
	if !math.IsInf(Min(ident).Identity(), 1) {
		t.Error("min identity should be +Inf")
	}
	if !math.IsNaN(Median(ident).Lower(rle.New())) {
		t.Error("median of empty should be NaN")
	}
	if Count[float64]().Lower(0) != 0 {
		t.Error("count of empty should be 0")
	}
}

func TestMedianEquivalenceWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Median(ident)
	n := MedianNaive(ident)
	for round := 0; round < 50; round++ {
		ev := randEvents(rng, 1+rng.Intn(40))
		if got, want := m.Lower(Recompute(m, ev)), n.Lower(Recompute(n, ev)); got != want {
			t.Fatalf("median %v != naive %v", got, want)
		}
	}
}
