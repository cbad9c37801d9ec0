package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareCounts records the run's noise-free work counts under a key made
// of the workload, the inputs the counts depend on and a hash of the
// source tree, and fails the run when an earlier run of the same code and
// inputs recorded different counts.
func (r *run) compareCounts() error {
	if len(r.counts) == 0 || len(r.failures) > 0 {
		return nil
	}
	tree, err := sourceHash(".")
	if err != nil {
		return fmt.Errorf("hash sources: %w", err)
	}
	key := fmt.Sprintf("%s%s-%s", r.opts.workload, r.countInputs, tree[:16])
	path := filepath.Join(outDir, "counts", key+".json")
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		added := false
		for _, name := range sortedKeys(r.counts) {
			want, ok := prev[name]
			if !ok {
				// Traced runs count more than untraced ones; keep the union.
				prev[name], added = r.counts[name], true
				continue
			}
			got := r.counts[name]
			r.check(abs64(got-want) <= r.slack[name],
				"work count %s = %d, an earlier run of the same code recorded %d", name, got, want)
		}
		if !added {
			return nil
		}
		r.counts = prev
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.counts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sourceHash hashes every Go source and module file under root, skipping
// build output, so two checkouts of the same code share a key.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
