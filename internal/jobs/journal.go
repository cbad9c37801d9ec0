package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"noisewave/internal/faultinject"
)

// The write-ahead journal is the durable record of every job lifecycle
// transition. Each record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC32-C of payload][payload]
//
// where the payload is the canonical JSON of a journalRecord. Appends are
// fsync'd before they are acknowledged, so a record that made a client see
// a 202 survives any crash. Replay reads records until the first torn or
// corrupt frame — the unsynced tail of a crash — and truncates the file
// back to the last whole record, so the journal is append-consistent after
// any kill point.
//
// The journal stays bounded by compaction: the manager periodically
// rewrites it (temp file + rename) with only the live state — queued and
// running jobs in full, plus a bounded window of recent terminal jobs.
// Results themselves never live in the journal; they live in the
// content-addressed resultStore keyed by config hash, so a done record is a
// few hundred bytes regardless of payload size.

// recType tags one journal record.
type recType string

const (
	recSubmitted recType = "submitted"
	recRunning   recType = "running"
	recDone      recType = "done"
	recFailed    recType = "failed"
	recCanceled  recType = "canceled"
	// recInterrupted marks a job the recovery pass refused to re-run
	// (RecoverInterrupt policy): it was running when the daemon died.
	recInterrupted recType = "interrupted"
	// recShutdown is the clean-shutdown marker Drain writes last; a boot
	// that replays it as the final record knows the daemon exited on
	// purpose rather than crashed.
	recShutdown recType = "shutdown"
)

// journalRecord is the JSON payload of one frame. Submitted records carry
// the full config (the journal is the only durable copy of a queued job);
// every other type is a small transition keyed by job ID.
type journalRecord struct {
	Type     recType   `json:"type"`
	ID       string    `json:"id,omitempty"`
	Seq      int64     `json:"seq,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
	Priority int       `json:"priority,omitempty"`
	Hash     string    `json:"hash,omitempty"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	Config   *Config   `json:"config,omitempty"`
	Error    string    `json:"error,omitempty"`
	Time     time.Time `json:"time,omitzero"`
}

// crcTable is Castagnoli — hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader = 8 // 4-byte length + 4-byte CRC
	// maxFrame bounds a single record; anything larger in the length field
	// is treated as corruption, not an allocation request.
	maxFrame = 64 << 20
)

// journal is the append handle plus replay/compaction machinery. It is not
// internally synchronized: the Manager serializes access under its mutex.
type journal struct {
	path string
	f    *os.File
	inj  *faultinject.Injector
	// appends counts records written since open/compaction, the
	// compaction trigger.
	appends int
}

// encodeFrame renders one record to its framed byte form.
func encodeFrame(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: marshal journal record: %w", err)
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeader:], payload)
	return buf, nil
}

// readJournal scans a journal file, returning every whole, checksummed
// record and the byte offset where the valid prefix ends. A torn or
// corrupt frame stops the scan — everything past it is the unsynced debris
// of a crash. The payload buffer grows only with bytes actually read, so a
// corrupt length field cannot make replay allocate up to maxFrame.
func readJournal(r io.Reader) (recs []journalRecord, valid int64) {
	var hdr [frameHeader]byte
	var buf bytes.Buffer
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, valid
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFrame {
			return recs, valid
		}
		buf.Reset()
		if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
			return recs, valid
		}
		payload := buf.Bytes()
		if crc32.Checksum(payload, crcTable) != want {
			return recs, valid
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, valid
		}
		recs = append(recs, rec)
		valid += int64(frameHeader) + int64(n)
	}
}

// openJournal opens (creating if needed) the journal at path, replays its
// records and truncates any torn tail so the handle appends after the last
// whole record. tornBytes reports how much tail was discarded.
func openJournal(path string, inj *faultinject.Injector) (j *journal, recs []journalRecord, tornBytes int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: open journal: %w", err)
	}
	recs, valid := readJournal(f)
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("jobs: seek journal: %w", err)
	}
	if size > valid {
		tornBytes = size - valid
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("jobs: truncate torn journal tail: %w", err)
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("jobs: seek journal: %w", err)
		}
	}
	return &journal{path: path, f: f, inj: inj}, recs, tornBytes, nil
}

// append frames, writes and fsyncs one record. On an injected disk fault
// the write fails — optionally after landing a torn prefix of the frame,
// the shape a real crash mid-write leaves — and the caller must treat the
// record as not durable.
func (j *journal) append(rec journalRecord) error {
	buf, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if j.inj.DiskFaults() {
		if j.inj.DiskShortWrites() && len(buf) > 1 {
			// Land a torn frame, then fail: replay must discard it.
			j.f.Write(buf[:len(buf)/2])
			j.f.Sync()
		}
		return fmt.Errorf("jobs: journal append: %w", faultinject.ErrDiskFault)
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("jobs: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: journal sync: %w", err)
	}
	j.appends++
	return nil
}

// compact atomically replaces the journal with exactly recs (temp file +
// fsync + rename + directory fsync), then reopens the handle for appending.
// A crash at any point leaves either the old journal or the new one — never
// a mix.
func (j *journal) compact(recs []journalRecord) error {
	if j.inj.DiskFaults() {
		return fmt.Errorf("jobs: journal compact: %w", faultinject.ErrDiskFault)
	}
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	for _, rec := range recs {
		buf, err := encodeFrame(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("jobs: journal compact: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	old := j.f
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	old.Close()
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return err
	}
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: reopen compacted journal: %w", err)
	}
	j.f = nf
	j.appends = 0
	return nil
}

// close releases the file handle (without any shutdown marker — that is
// Drain's job).
func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Filesystems that reject directory fsync are tolerated — the
// rename itself is still atomic there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobs: open dir for sync: %w", err)
	}
	defer d.Close()
	d.Sync()
	return nil
}
