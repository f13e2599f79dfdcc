package checkpoint

// Store lifecycle: an on-disk index of entries plus an LRU size cap.
//
// index.json in the store directory enumerates every committed entry
// with its key text, size, unit count, and timestamps, so operators
// (and the eviction policy) can see what a checkpoint directory holds
// without parsing entry files. The index is advisory: it is rebuilt
// from a directory scan whenever it is missing, unreadable, or
// disagrees with the files actually present, so external deletions or
// concurrent writers degrade it gracefully rather than corrupting the
// store. Entries whose manifests cannot be read (foreign or stale
// files) are listed with an empty key and zero units.
//
// When Store.MaxBytes is positive, each commit evicts
// least-recently-used entries (by the index's LastUsed, refreshed on
// every Load hit) until the total entry size fits the cap; the entry
// just committed is never evicted, so a single oversized sweep still
// lands and is usable by the run that paid for it.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// IndexName is the store index's file name inside the store directory.
const IndexName = "index.json"

// IndexEntry describes one committed store entry.
type IndexEntry struct {
	// Hash is the entry's content address (the file is Hash + ".ckpt").
	Hash string `json:"hash"`
	// Key is the canonical key text (Key.String()); empty when the
	// entry was indexed by a directory rescan that could not read its
	// manifest.
	Key string `json:"key,omitempty"`
	// Bytes is the entry file's size.
	Bytes int64 `json:"bytes"`
	// Units is the number of captured units the entry holds (0 when
	// unknown).
	Units int `json:"units,omitempty"`
	// Created is when the entry was committed, LastUsed when it last
	// served a hit (commit time initially).
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
}

// storeIndex is the serialized form of index.json.
type storeIndex struct {
	Entries []IndexEntry `json:"entries"`
}

func (ix *storeIndex) find(hash string) *IndexEntry {
	for i := range ix.Entries {
		if ix.Entries[i].Hash == hash {
			return &ix.Entries[i]
		}
	}
	return nil
}

func (ix *storeIndex) totalBytes() int64 {
	var n int64
	for i := range ix.Entries {
		n += ix.Entries[i].Bytes
	}
	return n
}

// Index returns the store's entries, least-recently-used first,
// reconciled against the files actually on disk.
func (s *Store) Index() ([]IndexEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, err := s.loadIndexLocked()
	if err != nil {
		return nil, err
	}
	sort.Slice(ix.Entries, func(i, j int) bool {
		return ix.Entries[i].LastUsed.Before(ix.Entries[j].LastUsed)
	})
	return ix.Entries, nil
}

// loadIndexLocked reads index.json and reconciles it with the *.ckpt
// files present: stale index rows are dropped, unindexed files are
// added (reading their manifests when possible). Callers hold s.mu.
func (s *Store) loadIndexLocked() (*storeIndex, error) {
	ix := &storeIndex{}
	if data, err := os.ReadFile(filepath.Join(s.dir, IndexName)); err == nil {
		if jerr := json.Unmarshal(data, ix); jerr != nil {
			s.Log("checkpoint store: rebuilding unreadable index: %v", jerr)
			ix = &storeIndex{}
		}
	}
	paths, err := filepath.Glob(filepath.Join(s.dir, "*"+storeExt))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: index scan: %w", err)
	}
	present := make(map[string]int64, len(paths))
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			continue
		}
		hash := filepath.Base(p)
		hash = hash[:len(hash)-len(storeExt)]
		present[hash] = st.Size()
	}
	kept := ix.Entries[:0]
	for _, e := range ix.Entries {
		if size, ok := present[e.Hash]; ok {
			e.Bytes = size
			kept = append(kept, e)
			delete(present, e.Hash)
		}
	}
	ix.Entries = kept
	// Adopt untracked store files in sorted-hash order: ranging over
	// the map directly would append them in randomized order, so two
	// rebuilds of the same directory would disagree on entry order
	// (and on eviction tie-breaks downstream).
	orphans := make([]string, 0, len(present))
	for hash := range present {
		orphans = append(orphans, hash)
	}
	sort.Strings(orphans)
	for _, hash := range orphans {
		e := IndexEntry{Hash: hash, Bytes: present[hash]}
		path := filepath.Join(s.dir, hash+storeExt)
		if st, err := os.Stat(path); err == nil {
			e.Created, e.LastUsed = st.ModTime(), st.ModTime()
		}
		if key, err := readEntryKey(path); err == nil {
			e.Key = key
		}
		ix.Entries = append(ix.Entries, e)
	}
	return ix, nil
}

// saveIndexLocked writes index.json atomically; failures are logged,
// not fatal (the index is advisory and will be rebuilt).
func (s *Store) saveIndexLocked(ix *storeIndex) {
	sort.Slice(ix.Entries, func(i, j int) bool {
		return ix.Entries[i].LastUsed.Before(ix.Entries[j].LastUsed)
	})
	data, err := json.MarshalIndent(ix, "", "  ")
	if err != nil {
		s.Log("checkpoint store: index save failed: %v", err)
		return
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(s.dir, "index.tmp-*")
	if err != nil {
		s.Log("checkpoint store: index save failed: %v", err)
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		s.Log("checkpoint store: index save failed: %v", err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		s.Log("checkpoint store: index save failed: %v", err)
		return
	}
	if err := os.Rename(name, filepath.Join(s.dir, IndexName)); err != nil {
		os.Remove(name)
		s.Log("checkpoint store: index save failed: %v", err)
	}
}

// noteCommit records a freshly committed entry in the index and applies
// the LRU size cap, evicting the oldest entries (never the new one)
// until the store fits MaxBytes.
func (s *Store) noteCommit(hash, key string, units int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, err := s.loadIndexLocked()
	if err != nil {
		s.Log("checkpoint store: index update failed: %v", err)
		return
	}
	now := time.Now() //simlint:ordered LRU recency stamp; never read by the sweep
	size := int64(0)
	if st, err := os.Stat(filepath.Join(s.dir, hash+storeExt)); err == nil {
		size = st.Size()
	}
	if e := ix.find(hash); e != nil {
		e.Key, e.Units, e.Bytes, e.LastUsed = key, units, size, now
		if e.Created.IsZero() {
			e.Created = now
		}
	} else {
		ix.Entries = append(ix.Entries, IndexEntry{
			Hash: hash, Key: key, Units: units, Bytes: size,
			Created: now, LastUsed: now,
		})
	}
	if s.MaxBytes > 0 {
		s.evictLocked(ix, hash)
	}
	s.saveIndexLocked(ix)
}

// evictLocked removes least-recently-used entries until the total size
// fits s.MaxBytes, keeping the entry named keep.
func (s *Store) evictLocked(ix *storeIndex, keep string) {
	order := make([]int, len(ix.Entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return ix.Entries[order[a]].LastUsed.Before(ix.Entries[order[b]].LastUsed)
	})
	total := ix.totalBytes()
	evicted := make(map[string]bool)
	for _, i := range order {
		if total <= s.MaxBytes {
			break
		}
		e := ix.Entries[i]
		if e.Hash == keep {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Hash+storeExt)); err != nil && !os.IsNotExist(err) {
			s.Log("checkpoint store: evict %s failed: %v", e.Hash, err)
			continue
		}
		s.Log("checkpoint store: evicted %s (%d bytes, last used %s)",
			e.Hash, e.Bytes, e.LastUsed.Format(time.RFC3339))
		total -= e.Bytes
		evicted[e.Hash] = true
	}
	if len(evicted) > 0 {
		kept := ix.Entries[:0]
		for _, e := range ix.Entries {
			if !evicted[e.Hash] {
				kept = append(kept, e)
			}
		}
		ix.Entries = kept
	}
}

// noteUse refreshes an entry's LastUsed after a hit (best-effort).
// Unlike commits, hits are frequent, so this reads index.json as-is —
// no directory reconciliation — and touches only the one row; a
// missing or stale index is simply left for the next commit or Index
// call to rebuild.
func (s *Store) noteUse(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, IndexName))
	if err != nil {
		return
	}
	ix := &storeIndex{}
	if err := json.Unmarshal(data, ix); err != nil {
		return
	}
	e := ix.find(hash)
	if e == nil {
		return
	}
	e.LastUsed = time.Now() //simlint:ordered LRU recency stamp; never read by the sweep
	s.saveIndexLocked(ix)
}

// readEntryKey opens a store file just far enough to recover its key
// text (manifest only, no unit decoding). The captured-unit count is
// not in the manifest, so rescan-built index rows report Units as 0.
func readEntryKey(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	_, man, err := readHeader(f)
	if err != nil {
		return "", err
	}
	return man.Key.String(), nil
}
