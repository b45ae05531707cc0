package lint

// Cross-package facts.
//
// An analyzer running on package P can attach serialized facts to P's
// functions; when a downstream package Q (which imports P) is analyzed
// later, the same analyzer reads those facts back and reasons about
// calls into P without re-analyzing it. This mirrors the Fact mechanism
// of golang.org/x/tools/go/analysis on the standard library alone:
// facts are JSON documents keyed by (analyzer, package path, object),
// and the driver threads one FactStore over the module in dependency
// order.
//
// Facts are exported with Pass.ExportObjectFact and read back with
// Pass.ImportObjectFact. A fact is marshalled at export time, which
// validates serializability at the source and gives every import its
// own decoded copy.

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sync"
)

// Fact is a datum attached to an object (a package-level function or a
// method) by one analyzer and visible to the same analyzer in
// downstream packages. Implementations must be pointers to
// JSON-serializable structs; AFact is a marker.
type Fact interface {
	AFact()
}

// factKey identifies one stored fact: which analyzer wrote it, which
// package owns the object, the object's stable key (see objectKey), and
// the fact's concrete type name.
type factKey struct {
	analyzer string
	pkg      string
	obj      string
	typ      string
}

// FactStore holds the facts of every package analyzed so far in one
// lint run. It is shared mutable state across packages (and, in tests,
// across goroutines), so all access is mutex-guarded.
type FactStore struct {
	mu    sync.RWMutex
	facts map[factKey]json.RawMessage
}

// NewFactStore builds an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factKey]json.RawMessage{}}
}

// factTypeName is the unqualified concrete type name of a fact pointer,
// the type component of its store key.
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// objectKey is the stable within-package identity facts are keyed by:
// the bare name for package-level objects, "Type.Method" for methods
// (pointer receivers and value receivers collapse to the same key).
func objectKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// set validates and stores one fact. The error is reserved for
// non-serializable fact values — an analyzer bug, surfaced loudly.
func (s *FactStore) set(analyzer string, obj types.Object, f Fact) error {
	if obj == nil || obj.Pkg() == nil {
		return fmt.Errorf("lint: fact exported on object without a package")
	}
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("lint: fact %T is not JSON-serializable: %v", f, err)
	}
	k := factKey{analyzer: analyzer, pkg: obj.Pkg().Path(), obj: objectKey(obj), typ: factTypeName(f)}
	s.mu.Lock()
	s.facts[k] = data
	s.mu.Unlock()
	return nil
}

// get decodes the fact for (analyzer, obj, type-of-f) into f, reporting
// whether one was stored.
func (s *FactStore) get(analyzer string, obj types.Object, f Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	k := factKey{analyzer: analyzer, pkg: obj.Pkg().Path(), obj: objectKey(obj), typ: factTypeName(f)}
	s.mu.RLock()
	data, ok := s.facts[k]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	return json.Unmarshal(data, f) == nil
}

// Len reports the number of stored facts (for tests and audits).
func (s *FactStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.facts)
}

// ExportObjectFact attaches fact to obj for this pass's analyzer. The
// fact becomes visible to the same analyzer in every package analyzed
// later in the run. A non-serializable fact panics: that is an analyzer
// bug, not a finding.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil {
		return
	}
	if err := p.facts.set(p.Analyzer.Name, obj, fact); err != nil {
		panic(err)
	}
}

// ImportObjectFact decodes the fact of this pass's analyzer attached to
// obj (typically an object of an imported package) into fact, reporting
// whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.get(p.Analyzer.Name, obj, fact)
}
