package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// prepareLayoutLocked brings dir to the sharded layout, creating it fresh
// or adopting an existing one. Anything this binary cannot serve — a
// legacy v1 single-segment store, or shards written with a different
// routing — is discarded and reported as a reset, exactly as a schema
// change is: the store only caches results that recompute. Runs under the
// exclusive directory lock, so exactly one process makes the decision.
func (s *Store) prepareLayoutLocked() error {
	if err := os.Remove(filepath.Join(s.dir, v1SegmentName)); err == nil {
		s.reset = true
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	shardsDir := filepath.Join(s.dir, shardsDirName)
	if fi, err := os.Stat(shardsDir); err == nil && fi.IsDir() {
		stampPath := filepath.Join(shardsDir, layoutName)
		if err := checkLayoutStamp(stampPath); err == nil {
			if _, err := os.Stat(stampPath); os.IsNotExist(err) {
				return writeLayoutStamp(shardsDir)
			}
			return nil
		}
		s.reset = true
		if err := os.RemoveAll(shardsDir); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	// The shard files themselves are created lazily by openShard.
	if err := os.MkdirAll(shardsDir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return writeLayoutStamp(shardsDir)
}

// writeLayoutStamp records the shard routing, atomically.
func writeLayoutStamp(shardsDir string) error {
	tmp := filepath.Join(shardsDir, layoutName+".tmp")
	if err := os.WriteFile(tmp, []byte(layoutStamp), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(shardsDir, layoutName)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// checkLayoutStamp verifies the LAYOUT file matches this binary's shard
// routing. A missing stamp (an interrupted creation) passes — the shards
// themselves still verify — but a conflicting one means the directory was
// written with a different shard count and every key would route wrong.
func checkLayoutStamp(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	if string(b) != layoutStamp {
		return fmt.Errorf("store: %s does not match this binary's shard routing (have %q, want %q)",
			path, strings.TrimSpace(string(b)), strings.TrimSpace(layoutStamp))
	}
	return nil
}

func shardSegPath(shardsDir string, i int) string {
	return filepath.Join(shardsDir, fmt.Sprintf("shard-%02d.seg", i))
}

func shardLockPath(shardsDir string, i int) string {
	return filepath.Join(shardsDir, fmt.Sprintf("shard-%02d.lock", i))
}
