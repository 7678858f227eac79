package experiments_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hypertrio/internal/experiments"
)

// TestQuickSuiteGolden regenerates the full quick-scale experiment suite
// and compares every output file byte-for-byte (via SHA-256) against the
// committed manifest in testdata/quick-suite.sha256. This is the
// refactoring safety net: any change that perturbs simulation outcomes —
// an event reordered, a map iterated, a latency charged differently —
// shows up here as a hash mismatch on the exact files that changed.
//
// The manifest is regenerated intentionally with:
//
//	go run ./cmd/experiments -quick -out /tmp/golden
//	(cd /tmp/golden && find . -type f | sort | sed 's|^\./||' | xargs sha256sum) \
//	    > internal/experiments/testdata/quick-suite.sha256
func TestQuickSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite takes ~30s; skipped in -short mode")
	}
	// Invariants on buys two proofs in one pass: the manifest was
	// generated WITHOUT the checker, so matching it byte-for-byte proves
	// the stage is transparent; and every cell of the suite — both
	// designs, fault-free and fault-injected — ran with conservation
	// (attempts == packets + drops, no completion without admission,
	// PTB occupancy bounded) actively asserted.
	opts := experiments.Options{Seed: 42, Quick: true, Workers: runtime.NumCPU(), Invariants: true}
	compareManifest(t, generateSuite(t, opts))
}

// TestQuickSuiteGoldenStreaming re-derives the whole quick suite from
// online streaming sources — no cell materializes its trace except the
// Oracle-policy cells (fig11b/fig11c), which fall back to the cache path
// by design — and holds every output to the same byte-level manifest as
// the materialized serial run. This is the streaming tentpole's
// acceptance bar: a stream and a constructed trace are one generation
// path, so switching the suite between them must not move a single byte.
func TestQuickSuiteGoldenStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite takes ~30s; skipped in -short mode")
	}
	// The subtest is named for the unsharded (serial-engine) configuration
	// it pins; it keeps that name so the case stays comparable across runs.
	t.Run("shards=0", func(t *testing.T) {
		opts := experiments.Options{
			Seed: 42, Quick: true, Workers: runtime.NumCPU(),
			Invariants: true, Stream: true,
		}
		compareManifest(t, generateSuite(t, opts))
	})
}

// generateSuite regenerates the full quick suite under opts, mirroring
// cmd/experiments' output layout exactly — <id>.txt and <id>.csv per
// experiment plus the INDEX.txt trailer — and returns the per-file
// SHA-256 map.
func generateSuite(t *testing.T, opts experiments.Options) map[string]string {
	t.Helper()
	dir := t.TempDir()
	var index strings.Builder
	fmt.Fprintf(&index, "HyperTRIO experiment regeneration (quick=%v, seed=%d)\n", true, int64(42))
	fmt.Fprintf(&index, "generated by cmd/experiments\n\n")
	for _, e := range experiments.All {
		tbl, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		writeFile(t, filepath.Join(dir, e.ID+".txt"), tbl.String())
		writeFile(t, filepath.Join(dir, e.ID+".csv"), tbl.CSV())
		fmt.Fprintf(&index, "%-8s %s\n", e.ID, e.Title)
	}
	writeFile(t, filepath.Join(dir, "INDEX.txt"), index.String())
	return hashDir(t, dir)
}

// compareManifest diffs a regenerated suite against the committed golden
// manifest, reporting drifted, missing and unexpected files by name.
func compareManifest(t *testing.T, got map[string]string) {
	t.Helper()
	want := loadManifest(t, filepath.Join("testdata", "quick-suite.sha256"))
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from regenerated suite", name)
			continue
		}
		if g != want[name] {
			t.Errorf("%s: output drifted from golden manifest\n got %s\nwant %s", name, g, want[name])
		}
		delete(got, name)
	}
	var extra []string
	for name := range got {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		t.Errorf("%s: produced but absent from golden manifest (regenerate testdata/quick-suite.sha256)", name)
	}
}

func loadManifest(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden manifest: %v", err)
	}
	m := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed manifest line %q", line)
		}
		m[fields[1]] = fields[0]
	}
	if len(m) == 0 {
		t.Fatal("empty golden manifest")
	}
	return m
}

func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	m := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		m[filepath.ToSlash(rel)] = fmt.Sprintf("%x", sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
