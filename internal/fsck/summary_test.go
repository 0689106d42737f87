package fsck

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// TestSyncOfManyFilesSplitsSummary writes more one-block files than one
// partial-segment summary can describe (each file costs a FINFO) and
// syncs them in a single flush. The segment writer must close partial
// segments at the summary's capacity rather than fail mid-flush, and the
// result must remount and check clean.
func TestSyncOfManyFilesSplitsSummary(t *testing.T) { manyFilesOnePseg(t, false) }

// TestMigrateOfManyFilesSplitsSummary stages the blocks of all those
// files with one MigrateRefs call: Migratev must likewise stop at the
// summary's capacity and let the caller continue in the same staging
// segment.
func TestMigrateOfManyFilesSplitsSummary(t *testing.T) { manyFilesOnePseg(t, true) }

func manyFilesOnePseg(t *testing.T, migrate bool) {
	const segBlocks, nfiles = 512, 320
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 24*segBlocks, nil)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 2, 4, segBlocks*lfs.BlockSize, nil)
	cfg := core.Config{
		SegBlocks: segBlocks,
		Disks:     []dev.BlockDev{disk},
		Jukeboxes: []jukebox.Footprint{juke},
		CacheSegs: 4,
		MaxInodes: 512,
	}
	content := func(i int) []byte {
		b := make([]byte, lfs.BlockSize)
		for j := range b {
			b[j] = byte(i*7 + j)
		}
		return b
	}
	name := func(i int) string { return fmt.Sprintf("/d/f%03d", i) }
	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		flushes := hl.FS.Stats().Flushes
		for i := 0; i < nfiles; i++ {
			f, err := hl.FS.Create(p, name(i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, content(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := hl.FS.Stats().Flushes; got != flushes {
			t.Fatalf("%d flushes before the Sync; the test needs one flush of every file", got-flushes)
		}
		if err := hl.FS.Sync(p); err != nil {
			t.Fatalf("Sync of %d one-block files: %v", nfiles, err)
		}
		if !migrate {
			return
		}
		var refs []lfs.BlockRef
		for i := 0; i < nfiles; i++ {
			f, err := hl.FS.Open(p, name(i))
			if err != nil {
				t.Fatal(err)
			}
			r, err := hl.FS.FileBlockRefs(p, f.Inum())
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, r...)
		}
		staged, err := hl.MigrateRefs(p, refs)
		if err != nil {
			t.Fatalf("MigrateRefs of %d files: %v", nfiles, err)
		}
		if staged != nfiles*lfs.BlockSize {
			t.Fatalf("staged %d bytes, want %d", staged, nfiles*lfs.BlockSize)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
	})
	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, cfg, false)
		if err != nil {
			t.Fatalf("remount: %v", err)
		}
		rep, err := Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			var b bytes.Buffer
			rep.Write(&b)
			t.Fatalf("fsck after remount:\n%s", b.String())
		}
		for i := 0; i < nfiles; i++ {
			f, err := hl.FS.Open(p, name(i))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, lfs.BlockSize)
			if n, err := f.ReadAt(p, got, 0); n != len(got) || (err != nil && err != io.EOF) {
				t.Fatalf("%s: read %d bytes: %v", name(i), n, err)
			}
			if !bytes.Equal(got, content(i)) {
				t.Fatalf("%s: contents lost across remount", name(i))
			}
		}
	})
	k.Stop()
}
