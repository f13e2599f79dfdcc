package checkpoint

// Offline store scrub. Load and LoadPartial already treat corruption
// as a miss at use time; Verify surfaces it ahead of time — walk every
// committed entry and partial journal, decode it end to end (every
// record's seal included), and report what would not survive a load. The
// `simd fsck` subcommand is the CLI face of this.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// VerifyProblem describes one file Verify could not validate.
type VerifyProblem struct {
	// File is the offending file's name inside the store directory.
	File string
	// Err is the defect, phrased as the load path would report it.
	Err error
}

// VerifyReport summarizes one Verify pass.
type VerifyReport struct {
	// Entries and Partials count the files scanned of each kind.
	Entries, Partials int
	// Problems lists every file that failed validation, in name order.
	Problems []VerifyProblem
	// Evicted lists the problem files removed (evict mode only).
	Evicted []string
}

// Clean reports whether the scan found no problems.
func (r *VerifyReport) Clean() bool { return len(r.Problems) == 0 }

// Verify scrubs every committed entry (*.ckpt) and partial journal
// (*.partial) in the store: each file must decode end to end under the
// same validation the load path applies — magic, version, manifest,
// record structure, chain geometry, and every record's CRC-32C seal —
// and its name must match its manifest key's content address. When
// evict is true, files that fail are removed. Partial journals are
// considered valid when any verified unit survives, mirroring
// LoadPartial: a truncated journal is degraded work, not corruption.
// Other files are skipped.
func (s *Store) Verify(evict bool) (*VerifyReport, error) {
	rep := &VerifyReport{}
	names, err := filepath.Glob(filepath.Join(s.dir, "*"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: verify: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		base := filepath.Base(path)
		var verr error
		switch {
		case strings.HasSuffix(base, storeExt):
			rep.Entries++
			verr = verifyFile(path, storeExt)
		case strings.HasSuffix(base, partialExt):
			rep.Partials++
			verr = verifyFile(path, partialExt)
		default:
			// Orphaned temp files and foreign files (an index.json an
			// earlier release kept included): not ours to judge.
			continue
		}
		if verr == nil {
			continue
		}
		rep.Problems = append(rep.Problems, VerifyProblem{File: base, Err: verr})
		if evict {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return rep, fmt.Errorf("checkpoint: verify: evict %s: %w", base, err)
			}
			s.Log("checkpoint store: evicted corrupt %s: %v", base, verr)
			rep.Evicted = append(rep.Evicted, base)
		}
	}
	return rep, nil
}

// verifyFile decodes one committed entry (ext storeExt) or partial
// journal (partialExt) against its own manifest key, checks the file
// sits at that key's content address, and applies the load path's
// verdict: an entry must decode to its End record, a journal must keep
// at least one verified unit.
func verifyFile(path, ext string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr, man, err := readHeader(f)
	if err != nil {
		return err
	}
	if want := man.Key.Hash() + ext; filepath.Base(path) != want {
		return fmt.Errorf("filename does not match manifest key (want %s)", want)
	}
	set, err := scanRecords(cr, man, nil, nil)
	if ext == partialExt {
		_, err = resumable(set, err)
	}
	return err
}
