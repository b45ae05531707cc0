package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rtmdm/internal/expr"
)

// TestQuickCSVGolden renders every experiment at the quick configuration
// in process and compares the bytes with testdata/quick.csv, the output
// of `rtmdm-bench -all -quick -csv`. Any change to the workload
// generator, the analyses, the executor or the table formatting that
// moves one cell fails here. Regenerate deliberately with
//
//	go run ./cmd/rtmdm-bench -all -quick -csv > cmd/rtmdm-bench/testdata/quick.csv
func TestQuickCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.csv"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := expr.QuickConfig()
	var got bytes.Buffer
	for _, e := range expr.All() {
		tb, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tb.CSV(&got)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("quick CSV differs from testdata/quick.csv at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
