package dist

// The coordinator's write-ahead run journal. Every accepted run
// persists — under runs/ inside the coordinator's store directory —
// its request, resolved spec, shard split, and the merged-stream
// prefix, so a restarted coordinator reloads in-flight runs and
// continues them bit-identically instead of losing them with its
// memory. The journal rides the same durability discipline as the
// checkpoint store's partial journals: atomic temp+rename install,
// append-and-flush updates (the kernel keeps flushed bytes across a
// process SIGKILL), and a checksum on every record, so a reader keeps
// the records before the first one that fails it and a torn tail
// degrades to slightly more replay work, never a wrong result. Unlike
// a store record's seal, a line's checksum covers its bytes alone, not
// the run or the line's position.
//
// Each line is `%08x <json>\n`: a CRC-32C over the JSON bytes, then
// one journalLine with exactly one field set. Unit lines additionally
// re-verify the unit's own wire digest at load, so corruption that
// somehow round-trips the line checksum still cannot replay into the
// merge.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// runJournalDirName is the journal subdirectory under the store dir.
const runJournalDirName = "runs"

// runJournalExt names one run's journal file (<id>.runj).
const runJournalExt = ".runj"

// journalRun is a journal's header line: everything needed to rebuild
// the run's execution state without re-resolving against a live
// client. Total and Pop pin the shard split's denominators so recovery
// reproduces the exact ranges even if resolution defaults ever change.
type journalRun struct {
	ID    string
	Req   wireRequest
	Spec  runSpec
	Total int
	Pop   uint64
}

// journalShard is one shard range of the run's split.
type journalShard struct {
	Lo, Hi, Idx int
}

// journalDone records one shard's completed trailer: recovery skips
// re-dispatching shard Idx entirely. (Older coordinators also journaled
// the trailer's sweep accounting as Done; decoding ignores it.)
type journalDone struct {
	Idx int
}

// journalLine is one journal record; exactly one field is set.
type journalLine struct {
	Run    *journalRun    `json:"run,omitempty"`
	Shards []journalShard `json:"shards,omitempty"`
	Unit   *wireUnit      `json:"unit,omitempty"`
	Done   *journalDone   `json:"done,omitempty"`
}

// runJournal is an open, installed journal accepting appends. Append
// failures latch and log once: a journal that stops growing costs a
// restarted coordinator some replayed merge work, which is strictly
// better than failing the live run.
type runJournal struct {
	path string
	logf func(format string, args ...any)

	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	err error
}

func runJournalDir(storeDir string) string {
	return filepath.Join(storeDir, runJournalDirName)
}

func runJournalPath(storeDir, id string) string {
	return filepath.Join(runJournalDir(storeDir), id+runJournalExt)
}

// encodeJournalLine renders one checksummed journal line.
func encodeJournalLine(ln journalLine) ([]byte, error) {
	blob, err := json.Marshal(ln)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(blob)+10)
	out = fmt.Appendf(out, "%08x ", crc32.Checksum(blob, wireCastagnoli))
	out = append(out, blob...)
	out = append(out, '\n')
	return out, nil
}

// decodeJournalLine parses and verifies one line; any defect is an
// error (the caller stops at the first bad line, keeping the prefix).
func decodeJournalLine(line []byte) (journalLine, error) {
	var ln journalLine
	if len(line) < 10 || line[8] != ' ' {
		return ln, fmt.Errorf("malformed journal line")
	}
	sum, err := hex.DecodeString(string(line[:8]))
	if err != nil {
		return ln, fmt.Errorf("malformed journal checksum")
	}
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	blob := line[9:]
	if crc32.Checksum(blob, wireCastagnoli) != want {
		return ln, fmt.Errorf("journal line checksum mismatch")
	}
	if err := json.Unmarshal(blob, &ln); err != nil {
		return ln, err
	}
	return ln, nil
}

// writeRunJournal stages lines into a temp file and atomically installs
// it as id's journal, returning the open journal for further appends.
// It serves both fresh runs (header only) and recovery compaction
// (header + verified prefix rewritten, dropping any torn tail).
func writeRunJournal(storeDir, id string, logf func(string, ...any), lines ...journalLine) (*runJournal, error) {
	dir := runJournalDir(storeDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: run journal: %w", err)
	}
	tmp, err := os.CreateTemp(dir, id+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("dist: run journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, ln := range lines {
		enc, err := encodeJournalLine(ln)
		if err == nil {
			_, err = w.Write(enc)
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, fmt.Errorf("dist: run journal: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("dist: run journal: %w", err)
	}
	path := runJournalPath(storeDir, id)
	if err := os.Rename(tmp.Name(), path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("dist: run journal: %w", err)
	}
	return &runJournal{path: path, logf: logf, f: tmp, w: w}, nil
}

// append journals one line, flushing it to the kernel. Best-effort by
// design: see runJournal.
func (j *runJournal) append(ln journalLine) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.f == nil {
		return
	}
	enc, err := encodeJournalLine(ln)
	if err == nil {
		_, err = j.w.Write(enc)
	}
	if err == nil {
		err = j.w.Flush()
	}
	if err != nil {
		j.err = err
		if j.logf != nil {
			j.logf("dist: run journal %s stopped: %v", filepath.Base(j.path), err)
		}
	}
}

// close closes the file, keeping the journal on disk.
func (j *runJournal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.w.Flush()
		j.f.Close()
		j.f = nil
	}
}

// remove closes and deletes the journal — the run reached a terminal
// state and has nothing left to recover.
func (j *runJournal) remove() {
	if j == nil {
		return
	}
	j.close()
	os.Remove(j.path)
}

// recoveredRun is one journal's longest valid prefix, loaded at
// coordinator start.
type recoveredRun struct {
	hdr    journalRun
	shards []journalShard
	units  []wireUnit
	dones  []journalDone
}

// loadRunJournals scans storeDir's runs/ directory and parses every
// journal, returning the recoverable runs. A file without a valid
// header line is skipped (and removed — nothing can be done with it);
// any later defect — line checksum, JSON, or a unit whose wire digest
// does not match its fields — ends that journal's prefix, exactly like
// the checkpoint partial reader.
func loadRunJournals(storeDir string, logf func(string, ...any)) []recoveredRun {
	paths, err := filepath.Glob(filepath.Join(runJournalDir(storeDir), "*"+runJournalExt))
	if err != nil {
		return nil
	}
	var runs []recoveredRun
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rec, ok := parseRunJournal(data)
		if !ok {
			if logf != nil {
				logf("dist: discarding unusable run journal %s", filepath.Base(path))
			}
			os.Remove(path)
			continue
		}
		runs = append(runs, rec)
	}
	return runs
}

// parseRunJournal extracts the longest valid prefix of one journal's
// bytes. ok is false when no valid header line exists.
func parseRunJournal(data []byte) (recoveredRun, bool) {
	var rec recoveredRun
	sawHeader := false
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail
		}
		ln, err := decodeJournalLine(data[:nl])
		if err != nil {
			break
		}
		data = data[nl+1:]
		switch {
		case ln.Run != nil:
			if sawHeader {
				return rec, sawHeader // spliced: keep the prefix
			}
			rec.hdr = *ln.Run
			sawHeader = true
		case !sawHeader:
			return rec, false
		case ln.Shards != nil:
			rec.shards = ln.Shards
		case ln.Unit != nil:
			if ln.Unit.digest() != ln.Unit.Digest {
				return rec, sawHeader // corrupt measurement: stop trusting
			}
			rec.units = append(rec.units, *ln.Unit)
		case ln.Done != nil:
			rec.dones = append(rec.dones, *ln.Done)
		}
	}
	return rec, sawHeader
}

// journalLines renders a recovered run back into its compacted line
// sequence — written at recovery so the re-installed journal holds
// exactly the verified prefix.
func (rec *recoveredRun) journalLines() []journalLine {
	lines := []journalLine{{Run: &rec.hdr}}
	if rec.shards != nil {
		lines = append(lines, journalLine{Shards: rec.shards})
	}
	for i := range rec.units {
		lines = append(lines, journalLine{Unit: &rec.units[i]})
	}
	for i := range rec.dones {
		lines = append(lines, journalLine{Done: &rec.dones[i]})
	}
	return lines
}
