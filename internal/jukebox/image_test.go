package jukebox

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// Image tests use small segments so corpora and copies stay cheap.
const imgSegBytes = 2 * dev.BlockSize

// imageJukebox returns a 3-volume jukebox with segments written out of
// order on two volumes, one volume shrunk to 3 segments and filled.
func imageJukebox(t testing.TB) *Jukebox {
	k := sim.NewKernel()
	j := MustNew(k, MO6300, 2, 3, 6, imgSegBytes, nil)
	j.SetActualSegments(2, 3)
	k.RunProc(func(p *sim.Proc) {
		for i, w := range [][2]int{{0, 4}, {0, 1}, {1, 5}, {0, 0}, {1, 2}, {2, 0}, {2, 1}, {2, 2}} {
			buf := bytes.Repeat([]byte{byte(i + 1)}, imgSegBytes)
			if err := j.WriteSegment(p, w[0], w[1], buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.WriteSegment(p, 2, 3, make([]byte, imgSegBytes)); !errors.Is(err, ErrEndOfMedium) {
			t.Fatalf("write past the shrunk volume: %v, want ErrEndOfMedium", err)
		}
	})
	return j
}

func saveJukebox(t testing.TB, j *Jukebox) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := j.SaveStore(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestJukeboxImageDeterministic: two saves of the same state are
// identical, and Save→Load→Save round-trips byte for byte.
func TestJukeboxImageDeterministic(t *testing.T) {
	j := imageJukebox(t)
	a := saveJukebox(t, j)
	for i := 0; i < 5; i++ { // map order varies between ranges
		if !bytes.Equal(a, saveJukebox(t, j)) {
			t.Fatal("two saves of one jukebox differ")
		}
	}
	j2 := MustNew(sim.NewKernel(), MO6300, 2, 3, 6, imgSegBytes, nil)
	if err := j2.LoadStore(bytes.NewReader(a)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, saveJukebox(t, j2)) {
		t.Fatal("save, load, save does not round-trip")
	}
}

// TestJukeboxLoadStoreRejectsCorrupt: every malformed image fails with
// an error wrapping dev.ErrCorrupt and leaves every volume untouched.
func TestJukeboxLoadStoreRejectsCorrupt(t *testing.T) {
	good := saveJukebox(t, imageJukebox(t))
	const vol0, rec0 = 16, 32 // volume 0 header, its first record
	mutate := func(off int, v uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	vol1 := rec0 + 3*(4+imgSegBytes) // volume 0 holds three segments
	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      mutate(0, 0),
		"volume count":   mutate(4, 4),
		"segment size":   mutate(8, imgSegBytes+1),
		"actual > nom":   mutate(vol0, 7),
		"unknown flags":  mutate(vol0+4, 2),
		"huge count":     mutate(vol0+8, 1<<31),
		"out of range":   mutate(rec0, 6),
		"repeated seg":   mutate(rec0+4+imgSegBytes, binary.LittleEndian.Uint32(good[rec0:])),
		"second volume":  mutate(vol1+8, 7),
		"truncated":      good[:len(good)-1],
		"no volume hdrs": good[:16],
	}
	for name, data := range cases {
		j := imageJukebox(t)
		before := saveJukebox(t, j)
		err := j.LoadStore(bytes.NewReader(data))
		if !errors.Is(err, dev.ErrCorrupt) {
			t.Errorf("%s: err = %v, want dev.ErrCorrupt", name, err)
		}
		if !bytes.Equal(before, saveJukebox(t, j)) {
			t.Errorf("%s: failed load changed the jukebox", name)
		}
	}
}

// FuzzJukeboxLoadStore: LoadStore never panics; it either fails with
// dev.ErrCorrupt leaving the jukebox unchanged, or accepts an image that
// saves back to a canonical one loading to the same state.
func FuzzJukeboxLoadStore(f *testing.F) {
	good := saveJukebox(f, imageJukebox(f))
	f.Add(good)
	f.Add(saveJukebox(f, MustNew(sim.NewKernel(), MO6300, 2, 3, 6, imgSegBytes, nil)))
	f.Add(good[:40])
	f.Fuzz(func(t *testing.T, data []byte) {
		j := MustNew(sim.NewKernel(), MO6300, 2, 3, 6, imgSegBytes, nil)
		j.vols[1].store[3] = bytes.Repeat([]byte{0xee}, imgSegBytes)
		before := saveJukebox(t, j)
		if err := j.LoadStore(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, dev.ErrCorrupt) {
				t.Fatalf("error %v does not wrap dev.ErrCorrupt", err)
			}
			if !bytes.Equal(before, saveJukebox(t, j)) {
				t.Fatal("failed load changed the jukebox")
			}
			return
		}
		canon := saveJukebox(t, j)
		j2 := MustNew(sim.NewKernel(), MO6300, 2, 3, 6, imgSegBytes, nil)
		if err := j2.LoadStore(bytes.NewReader(canon)); err != nil {
			t.Fatalf("canonical re-save rejected: %v", err)
		}
		if !bytes.Equal(canon, saveJukebox(t, j2)) {
			t.Fatal("canonical re-save does not round-trip")
		}
	})
}
