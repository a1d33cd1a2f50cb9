package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// openStore builds each Store implementation for the shared
// table-driven contract tests.
func storeImpls(t *testing.T) map[string]func(t *testing.T) Store {
	t.Helper()
	return map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store { return NewMemStore() },
		"disk": func(t *testing.T) Store {
			s, err := OpenDiskStore(filepath.Join(t.TempDir(), "results.log"))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func doneRec(h Hash, version uint64, node string) Record {
	return Record{
		Hash: h, Version: version, State: serve.StateDone, Node: node,
		Result: json.RawMessage(`{"iterations":3}`),
	}
}

// TestStoreContract runs the Put/Get/Len/Hashes semantics every Store
// implementation must share.
func TestStoreContract(t *testing.T) {
	for name, open := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			h1, h2 := testHash(1), testHash(2)

			if _, found, err := s.Get(h1); err != nil || found {
				t.Fatalf("empty store Get = found=%v err=%v", found, err)
			}
			applied, err := s.Put(doneRec(h1, 1, "n1"))
			if err != nil || !applied {
				t.Fatalf("first Put applied=%v err=%v", applied, err)
			}
			// Same version: keep existing (ties are benign by
			// bit-determinism, so first write wins).
			applied, err = s.Put(doneRec(h1, 1, "n2"))
			if err != nil || applied {
				t.Fatalf("equal-version Put applied=%v err=%v, want not applied", applied, err)
			}
			// Lower version: stale, rejected.
			if applied, _ = s.Put(Record{Hash: h1, Version: 0, State: serve.StateRunning}); applied {
				t.Fatal("stale Put applied")
			}
			// Higher version supersedes.
			if applied, _ = s.Put(doneRec(h1, 2, "n3")); !applied {
				t.Fatal("newer Put not applied")
			}
			rec, found, err := s.Get(h1)
			if err != nil || !found || rec.Version != 2 || rec.Node != "n3" {
				t.Fatalf("Get after supersede = %+v found=%v err=%v", rec, found, err)
			}
			if _, err := s.Put(doneRec(h2, 1, "n1")); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d, want 2", s.Len())
			}
			hashes := s.Hashes()
			if len(hashes) != 2 {
				t.Fatalf("Hashes = %d entries, want 2", len(hashes))
			}
			for i := 1; i < len(hashes); i++ {
				if string(hashes[i-1][:]) >= string(hashes[i][:]) {
					t.Fatal("Hashes not sorted")
				}
			}
		})
	}
}

// TestStoreConcurrent hammers one store from many goroutines (the race
// detector is the assertion that matters).
func TestStoreConcurrent(t *testing.T) {
	for name, open := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						h := testHash(i % 10)
						if _, err := s.Put(doneRec(h, uint64(g*50+i), "n")); err != nil {
							t.Error(err)
							return
						}
						if _, _, err := s.Get(h); err != nil {
							t.Error(err)
							return
						}
						s.Len()
					}
				}(g)
			}
			wg.Wait()
			if s.Len() != 10 {
				t.Errorf("Len = %d, want 10", s.Len())
			}
		})
	}
}

// TestDiskStoreRecovery: a reopened log must reproduce the exact
// resident set, including version supersessions written live.
func TestDiskStoreRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Put(Record{Hash: testHash(i), Version: 1, State: serve.StateRunning, Node: "n1"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Put(doneRec(testHash(i), 2, "n1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 5 {
		t.Fatalf("recovered Len = %d, want 5", re.Len())
	}
	for i := 0; i < 5; i++ {
		rec, found, err := re.Get(testHash(i))
		if err != nil || !found {
			t.Fatalf("record %d: found=%v err=%v", i, found, err)
		}
		wantVer := uint64(1)
		wantState := serve.StateRunning
		if i < 3 {
			wantVer, wantState = 2, serve.StateDone
		}
		if rec.Version != wantVer || rec.State != wantState {
			t.Errorf("record %d recovered as v%d %s, want v%d %s",
				i, rec.Version, rec.State, wantVer, wantState)
		}
	}
	// Recovery must not have re-appended anything: a second reopen sees
	// the same set from the same bytes.
	fi1, _ := os.Stat(path)
	re.Close()
	re2, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	fi2, _ := os.Stat(path)
	if fi1.Size() != fi2.Size() {
		t.Errorf("log grew across reopen: %d → %d bytes", fi1.Size(), fi2.Size())
	}
}

// TestDiskStoreTornTail: a crash mid-append leaves a partial entry; the
// reopen must truncate it and keep everything before it.
func TestDiskStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Put(doneRec(testHash(i), 1, "n1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	tears := map[string][]byte{
		"partial header":  append(append([]byte{}, intact...), 0x00, 0x00),
		"partial payload": append(append([]byte{}, intact...), 0x00, 0x00, 0x00, 0x20, '{', '"'),
		"garbage payload": append(append([]byte{}, intact...), 0x00, 0x00, 0x00, 0x02, 'x', 'y'),
		"huge length":     append(append([]byte{}, intact...), 0xff, 0xff, 0xff, 0xff),
	}
	for name, torn := range tears {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "torn.log")
			if err := os.WriteFile(p, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDiskStore(p)
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer re.Close()
			if re.Len() != 3 {
				t.Fatalf("recovered %d records, want 3", re.Len())
			}
			// The tail must be gone from disk, so the next append starts
			// at a clean boundary.
			fi, _ := os.Stat(p)
			if fi.Size() != int64(len(intact)) {
				t.Errorf("log is %d bytes after truncation, want %d", fi.Size(), len(intact))
			}
			// And the store keeps working after recovery.
			if applied, err := re.Put(doneRec(testHash(99), 1, "n2")); err != nil || !applied {
				t.Fatalf("Put after recovery applied=%v err=%v", applied, err)
			}
		})
	}
}

// TestDiskStoreReadersDuringAppends runs readers of every kind against
// a disk store whose writers keep appending. A reader that takes the
// store's locks in the opposite order to Put deadlocks here within a
// few thousand operations; the watchdog turns that hang into a failure.
func TestDiskStoreReadersDuringAppends(t *testing.T) {
	s, err := OpenDiskStore(filepath.Join(t.TempDir(), "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	watchdog := time.AfterFunc(30*time.Second, func() { panic("disk store readers and writers deadlocked") })
	defer watchdog.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if _, err := s.Put(doneRec(testHash(i%16), uint64(g*5000+i), "n")); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				s.Len()
				s.Hashes()
				if _, _, err := s.Get(testHash(i % 16)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDiskStoreAppendFailure makes every log append fail (the log file
// is closed under the store) while readers run. Put must report the
// error with the record applied to the index; under -race, any index
// access on the failure path that skips the index lock is reported
// against the concurrent readers.
func TestDiskStoreAppendFailure(t *testing.T) {
	s, err := OpenDiskStore(filepath.Join(t.TempDir(), "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	s.f.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Get(testHash(i % 8))
				s.Len()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		applied, err := s.Put(doneRec(testHash(i%8), uint64(i+1), "n"))
		if !applied || err == nil {
			t.Fatalf("Put %d on a closed log: applied=%v err=%v, want applied with an error", i, applied, err)
		}
	}
	wg.Wait()
}

// TestOpenDiskStoreReplayFailureCloses opens a "log" whose replay
// fails (a character device cannot be truncated) and checks that the
// failed opens leave no file descriptor behind. GC is off so no
// finalizer closes a leaked file first.
func TestOpenDiskStoreReplayFailureCloses(t *testing.T) {
	fds, err := os.ReadDir("/dev/fd")
	if err != nil {
		t.Skipf("no /dev/fd to count descriptors: %v", err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := len(fds)
	for i := 0; i < 8; i++ {
		if s, err := OpenDiskStore(os.DevNull); err == nil {
			s.Close()
			t.Skip("replay did not fail on the null device")
		}
	}
	fds, err = os.ReadDir("/dev/fd")
	if err != nil {
		t.Fatal(err)
	}
	if len(fds) > before {
		t.Fatalf("8 failed opens left %d more open descriptors", len(fds)-before)
	}
}
