package lint

import (
	"go/token"
	"go/types"
	"sync"
	"testing"
)

// TestFactStoreConcurrentAccess drives the store from many goroutines;
// the race tier (make race includes internal/lint) turns any unguarded
// access into a failure.
func TestFactStoreConcurrentAccess(t *testing.T) {
	store := NewFactStore()
	dep := types.NewPackage("example.com/dep", "dep")
	pump := types.NewFunc(token.NoPos, dep, "Pump", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := store.set("goroleak", pump, new(NonTerminatingFact)); err != nil {
					t.Error(err)
					return
				}
				if !store.get("goroleak", pump, new(NonTerminatingFact)) {
					t.Error("fact missing right after set")
					return
				}
				store.Len()
			}
		}()
	}
	wg.Wait()
	if store.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", store.Len())
	}
}
