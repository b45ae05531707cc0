package workload

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/nn"
	"rtmdm/internal/sim"
)

// keyFixturePlatform returns a fresh platform whose map is not shared with
// the cost presets, so perturbing it in place is safe.
func keyFixturePlatform() cost.Platform {
	p := cost.STM32H743
	p.CPU.MACsPerCycle = maps.Clone(p.CPU.MACsPerCycle)
	return p
}

func keyFixturePolicy() core.Policy {
	p := core.RTMDM()
	p.TaskDepth = map[string]int{"t0-ds-cnn": 3, "t1-tinymlp": 2}
	p.ChunkBytes = 4 << 10
	return p
}

func keyFixtureParams() Params {
	return Params{
		Seed: 7, N: 3, Util: 0.55, Platform: keyFixturePlatform(),
		Models:    []string{"ds-cnn", "tinymlp"},
		MinPeriod: 5 * sim.Millisecond, MaxPeriod: 900 * sim.Millisecond,
		DeadlineFrac: 0.9, JitterFrac: 0.1,
	}
}

func keyFixtureSpec() SetSpec {
	return SetSpec{Util: 0.4, Tasks: []TaskSpec{
		{Model: "ds-cnn", Seed: 11, Period: 50 * sim.Millisecond, Deadline: 45 * sim.Millisecond, Jitter: 1},
		{Model: "tinymlp", Seed: 12, Period: 80 * sim.Millisecond, Deadline: 80 * sim.Millisecond},
	}}
}

// keyCases are the memoized inputs whose keys must cover every field.
var keyCases = []struct {
	name string
	mk   func() any
	key  func(any) any
}{
	{"cost.Platform", func() any { return keyFixturePlatform() }, func(v any) any { return v.(cost.Platform).Key() }},
	{"core.Policy", func() any { return keyFixturePolicy() }, func(v any) any { return v.(core.Policy).Key() }},
	{"workload.Params", func() any { return keyFixtureParams() }, func(v any) any { return v.(Params).key() }},
	{"workload.SetSpec", func() any { return keyFixtureSpec() }, func(v any) any { return v.(SetSpec).Key() }},
}

// perturbLeaf changes the k-th leaf of v in place and returns its path, or
// "" once k is past the last leaf. Leaves are every scalar field (structs
// walked in declaration order), every slice element and map value, and
// each slice's and map's length (one entry added, one removed). Floats
// count twice: a value change and a sign flip, so 0 and -0 must differ.
// A kind it cannot perturb fails the test, so a new field of an unknown
// shape cannot slip past the coverage check.
func perturbLeaf(t *testing.T, v reflect.Value, path string, k *int) string {
	leaf := func(p string, do func()) string {
		if *k == 0 {
			do()
			return p
		}
		*k--
		return ""
	}
	if !v.CanSet() {
		t.Fatalf("%s: cannot perturb an unexported field", path)
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := perturbLeaf(t, v.Field(i), path+"."+v.Type().Field(i).Name, k); p != "" {
				return p
			}
		}
		return ""
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p := perturbLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), k); p != "" {
				return p
			}
		}
		if p := leaf(path+" (append)", func() { v.Set(reflect.Append(v, v.Index(0))) }); p != "" {
			return p
		}
		return leaf(path+" (truncate)", func() { v.Set(v.Slice(0, v.Len()-1)) })
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
		for _, mk := range keys {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(mk))
			if p := perturbLeaf(t, e, fmt.Sprintf("%s[%v]", path, mk), k); p != "" {
				v.SetMapIndex(mk, e)
				return p
			}
		}
		if p := leaf(path+" (add)", func() {
			nk := reflect.New(v.Type().Key()).Elem()
			nk.Set(keys[0])
			for v.MapIndex(nk).IsValid() {
				perturbScalar(t, nk, path)
			}
			v.SetMapIndex(nk, v.MapIndex(keys[0]))
		}); p != "" {
			return p
		}
		return leaf(path+" (delete)", func() { v.SetMapIndex(keys[0], reflect.Value{}) })
	case reflect.Float32, reflect.Float64:
		if p := leaf(path, func() { v.SetFloat(v.Float() + 0.25) }); p != "" {
			return p
		}
		return leaf(path+" (sign)", func() { v.SetFloat(-v.Float()) })
	default:
		return leaf(path, func() { perturbScalar(t, v, path) })
	}
}

// perturbScalar changes a settable scalar to a different value.
func perturbScalar(t *testing.T, v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("%s: no perturbation for kind %s; teach the key and this test about it", path, v.Kind())
	}
}

// TestKeysCoverEveryField pins the memoization keys to their types: for
// every leaf field of cost.Platform, core.Policy, workload.Params and
// workload.SetSpec, perturbing that one field changes the key, while equal
// values always give equal keys. A field the key encoders forget fails
// here instead of silently sharing cache entries.
func TestKeysCoverEveryField(t *testing.T) {
	for _, c := range keyCases {
		base := c.key(c.mk())
		for i := 0; i < 20; i++ { // map iteration order varies per call
			if got := c.key(c.mk()); got != base {
				t.Fatalf("%s: equal values gave different keys", c.name)
			}
		}
		leaves := 0
		for k := 0; ; k++ {
			x := c.mk()
			v := reflect.New(reflect.TypeOf(x)).Elem()
			v.Set(reflect.ValueOf(x))
			n := k
			path := perturbLeaf(t, v, c.name, &n)
			if path == "" {
				break
			}
			leaves++
			if c.key(v.Interface()) == base {
				t.Errorf("%s: key ignores %s", c.name, path)
			}
		}
		if leaves < reflect.TypeOf(c.mk()).NumField() {
			t.Fatalf("%s: only %d leaves walked", c.name, leaves)
		}
	}
}

// TestKeysNilVersusEmpty pins that a nil map or slice and an empty one key
// differently (a nil TaskDepth and an empty one validate differently), and
// that map insertion order never reaches a key.
func TestKeysNilVersusEmpty(t *testing.T) {
	p := keyFixturePlatform()
	p.CPU.MACsPerCycle = nil
	q := keyFixturePlatform()
	q.CPU.MACsPerCycle = map[nn.Kind]float64{}
	if p.Key() == q.Key() {
		t.Error("cost.Platform: nil and empty MACsPerCycle share a key")
	}
	pol, pol2 := keyFixturePolicy(), keyFixturePolicy()
	pol.TaskDepth, pol2.TaskDepth = nil, map[string]int{}
	if pol.Key() == pol2.Key() {
		t.Error("core.Policy: nil and empty TaskDepth share a key")
	}
	pa, pa2 := keyFixtureParams(), keyFixtureParams()
	pa.Models, pa2.Models = nil, []string{}
	if pa.key() == pa2.key() {
		t.Error("workload.Params: nil and empty Models share a key")
	}
	sp, sp2 := keyFixtureSpec(), keyFixtureSpec()
	sp.Tasks, sp2.Tasks = nil, []TaskSpec{}
	if sp.Key() == sp2.Key() {
		t.Error("workload.SetSpec: nil and empty Tasks share a key")
	}
	// Length-prefixed names: splitting one name into two changes the key.
	pa, pa2 = keyFixtureParams(), keyFixtureParams()
	pa.Models, pa2.Models = []string{"ab"}, []string{"a", "b"}
	if pa.key() == pa2.key() {
		t.Error("workload.Params: model names are not length-prefixed")
	}

	var kinds []nn.Kind
	for k := range cost.STM32H743.CPU.MACsPerCycle {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	fwd, rev := keyFixturePlatform(), keyFixturePlatform()
	fwd.CPU.MACsPerCycle, rev.CPU.MACsPerCycle = map[nn.Kind]float64{}, map[nn.Kind]float64{}
	for i := range kinds {
		fwd.CPU.MACsPerCycle[kinds[i]] = math.Sqrt(float64(kinds[i]))
		k := kinds[len(kinds)-1-i]
		rev.CPU.MACsPerCycle[k] = math.Sqrt(float64(k))
	}
	if fwd.Key() != rev.Key() {
		t.Error("cost.Platform: MACsPerCycle insertion order reaches the key")
	}
	names := []string{"a", "bb", "c", "dd", "e", "ff", "g", "hh", "i"}
	pf, pr := keyFixturePolicy(), keyFixturePolicy()
	pf.TaskDepth, pr.TaskDepth = map[string]int{}, map[string]int{}
	for i := range names {
		pf.TaskDepth[names[i]] = i + 1
		n := len(names) - 1 - i
		pr.TaskDepth[names[n]] = n + 1
	}
	if pf.Key() != pr.Key() {
		t.Error("core.Policy: TaskDepth insertion order reaches the key")
	}
}
