package lab

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// Close writes both profiles and is idempotent: every exit path of a
// campaign CLI (the end of main, Check on a failed or interrupted cell)
// runs it, so a profile must never depend on reaching main's last line.
func TestCampaignCloseWritesProfiles(t *testing.T) {
	for _, env := range []string{"ACTIVEMEM_CACHE_URL", "ACTIVEMEM_FLEET_URL"} {
		t.Setenv(env, "")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	flags := flag.NewFlagSet("campaign", flag.ContinueOnError)
	cf := RegisterCampaignFlags(flags)
	if err := flags.Parse([]string{"-cache-dir", cacheDir, "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	c, err := cf.Open()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := Memo(c.Exec, KeyOf("campaign-close"), func() (int, error) { return 42, nil }); err != nil || v != 42 {
		t.Fatalf("cell = %v, %v; want 42", v, err)
	}
	c.Close()

	gzipMagic := []byte{0x1f, 0x8b}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, gzipMagic) {
			t.Fatalf("%s: %d bytes, want a gzip-compressed profile", filepath.Base(p), len(b))
		}
	}
	st, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != 1 {
		t.Errorf("store holds %d cells after Close, want 1", n)
	}
	st.Close()

	// A second Close does nothing: it must not write the profile again.
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := os.Stat(mem); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("second Close rewrote the allocation profile (stat: %v)", err)
	}
}
