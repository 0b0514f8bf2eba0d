package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current reproductions")

// TestQuickGolden pins the paper reproduction: the 13 experiments of
// `stencilbench -exp all -quick`, run in registry order with the same
// parameters and options, must print exactly testdata/quick.golden. That
// file is stencilbench's output without its closing "ran 13 experiment(s)
// in …" line, the only one that varies between runs. A change that moves
// any reproduced number fails here; refresh the file with
//
//	go test ./internal/bench -run TestQuickGolden -update
//
// once the move is intended.
func TestQuickGolden(t *testing.T) {
	var out bytes.Buffer
	for _, e := range Experiments() {
		if err := e.Run(QuickParams(), ExpOpts{}, &out); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("reproductions differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
