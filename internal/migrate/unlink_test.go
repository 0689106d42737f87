package migrate

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// unlinkOneSelected wraps a policy: after selecting, it starts a
// concurrent process that unlinks the last candidate, which then runs as
// soon as the migrator first blocks — before that file is staged.
type unlinkOneSelected struct {
	Policy
	removed string
}

func (u *unlinkOneSelected) Select(p *sim.Proc, hl *core.HighLight, targetBytes int64) ([]Candidate, error) {
	cands, err := u.Policy.Select(p, hl, targetBytes)
	if len(cands) > 1 && u.removed == "" {
		u.removed = cands[len(cands)-1].Path
		p.Kernel().Go("unlink", func(q *sim.Proc) {
			if err := hl.FS.Remove(q, u.removed); err != nil {
				panic(err)
			}
		})
	}
	return cands, err
}

// TestRunOnceSkipsFileUnlinkedAfterSelect: a selected file removed
// before it is staged is skipped, and the rest of the run migrates.
func TestRunOnceSkipsFileUnlinkedAfterSelect(t *testing.T) {
	for _, window := range []int{0, 2} {
		e := newEnv(t)
		e.run(t, func(p *sim.Proc) {
			hl := e.hl
			files := map[string]*lfs.File{}
			for i, name := range []string{"/a", "/b", "/c", "/d"} {
				files[name] = mkFile(t, p, hl, name, 12+4*i, byte(i+1))
			}
			p.Sleep(time.Hour)
			m := NewMigrator(hl)
			m.MaxInFlight = window
			pol := &unlinkOneSelected{Policy: &STP{TimeExp: 1, SizeExp: 1, MinAge: time.Minute}}
			m.Policy = pol
			staged, err := m.RunOnce(p, 1<<30)
			if err != nil {
				t.Fatalf("window %d: RunOnce: %v", window, err)
			}
			if pol.removed == "" {
				t.Fatalf("window %d: policy selected too few files", window)
			}
			if _, err := hl.FS.Open(p, pol.removed); !errors.Is(err, lfs.ErrNotFound) {
				t.Fatalf("window %d: %s still present: %v", window, pol.removed, err)
			}
			var want int64
			for name, f := range files {
				if name == pol.removed {
					continue
				}
				refs, err := hl.FS.FileBlockRefs(p, f.Inum())
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range refs {
					if r.Lbn >= 0 {
						want += lfs.BlockSize
						if !hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr)) {
							t.Fatalf("window %d: %s block %d not migrated", window, name, r.Lbn)
						}
					}
				}
			}
			if staged < want {
				t.Fatalf("window %d: staged %d bytes, want at least %d", window, staged, want)
			}
		})
		e.k.Stop()
	}
}
