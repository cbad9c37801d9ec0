package jobs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"noisewave/internal/faultinject"
)

// testRecords is a small mixed-lifecycle record sequence.
func testRecords() []journalRecord {
	cfg := staConfig(100)
	return []journalRecord{
		{Type: recSubmitted, ID: "job-1", Seq: 1, Tenant: "a", Priority: 2,
			Hash: "h1", Config: &cfg, Time: stamp(time.Unix(1700000000, 0).UTC())},
		{Type: recRunning, ID: "job-1"},
		{Type: recDone, ID: "job-1", Hash: "h1", Time: stamp(time.Unix(1700000001, 0).UTC())},
		{Type: recSubmitted, ID: "job-2", Seq: 2, Tenant: "b", Hash: "h2", Config: &cfg},
		{Type: recFailed, ID: "job-2", Error: "solver diverged"},
		{Type: recShutdown, Time: stamp(time.Unix(1700000002, 0).UTC())},
	}
}

// TestJournalRoundTrip: records appended and fsync'd must replay verbatim
// after reopening the file.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), journalFile)
	j, recs, torn, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || torn != 0 {
		t.Fatalf("fresh journal replayed %d records, torn=%d", len(recs), torn)
	}
	want := testRecords()
	for _, rec := range want {
		if err := j.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	_, got, torn, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Errorf("clean journal reports torn bytes %d", torn)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed records differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestJournalTornTailEveryOffset truncates a journal at every byte offset
// and verifies replay yields exactly the whole-record prefix, reports the
// discarded tail, and physically truncates the file so a subsequent append
// lands on a frame boundary.
func TestJournalTornTailEveryOffset(t *testing.T) {
	recs := testRecords()
	var whole bytes.Buffer
	var bounds []int64 // cumulative frame end offsets
	for _, rec := range recs {
		buf, err := encodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		whole.Write(buf)
		bounds = append(bounds, int64(whole.Len()))
	}
	full := whole.Bytes()

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		// wantN = how many records end at or before the cut.
		wantN := 0
		for _, b := range bounds {
			if b <= cut {
				wantN++
			}
		}
		validEnd := int64(0)
		if wantN > 0 {
			validEnd = bounds[wantN-1]
		}

		dir := t.TempDir()
		path := filepath.Join(dir, journalFile)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, got, torn, err := openJournal(path, nil)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if len(got) != wantN {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(got), wantN)
		}
		if torn != cut-validEnd {
			t.Fatalf("cut=%d: torn=%d, want %d", cut, torn, cut-validEnd)
		}
		// The handle must append cleanly after the truncation.
		if err := j.append(journalRecord{Type: recShutdown}); err != nil {
			t.Fatalf("cut=%d: append after truncate: %v", cut, err)
		}
		j.close()
		_, got2, torn2, err := openJournal(path, nil)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if torn2 != 0 || len(got2) != wantN+1 {
			t.Fatalf("cut=%d: after append reopen got %d records torn=%d, want %d torn=0",
				cut, len(got2), torn2, wantN+1)
		}
	}
}

// TestJournalCorruptFrameStopsReplay: a bit flip inside a frame fails its
// CRC and discards it plus everything after.
func TestJournalCorruptFrameStopsReplay(t *testing.T) {
	recs := testRecords()
	var buf bytes.Buffer
	var firstEnd int64
	for i, rec := range recs {
		b, err := encodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		if i == 0 {
			firstEnd = int64(buf.Len())
		}
	}
	data := buf.Bytes()
	data[firstEnd+frameHeader+2] ^= 0x40 // flip a payload bit in record 2

	path := filepath.Join(t.TempDir(), journalFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got, torn, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("replayed %d records past a corrupt frame, want 1", len(got))
	}
	if torn != int64(len(data))-firstEnd {
		t.Errorf("torn=%d, want %d", torn, int64(len(data))-firstEnd)
	}
}

// TestJournalCorruptLengthAllocatesLittle: an 8-byte journal whose header
// claims a maximum-size frame replays as empty without allocating that
// frame — replay memory follows the bytes present, not the length field.
func TestJournalCorruptLengthAllocatesLittle(t *testing.T) {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxFrame)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, valid := readJournal(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if len(recs) != 0 || valid != 0 {
		t.Fatalf("corrupt header replayed %d records, valid=%d", len(recs), valid)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("replaying 8 corrupt bytes allocated %d bytes, want < 1 MiB", got)
	}
}

// FuzzReadJournal: replay over arbitrary bytes never panics, never claims
// more than it read, and accepts exactly whole frames: the returned
// records re-encode to the valid prefix byte for byte. A frame is accepted
// only past its CRC-32C, so in fuzzed input the accepted frames are the
// ones encodeFrame wrote into the seeds.
func FuzzReadJournal(f *testing.F) {
	var whole bytes.Buffer
	for _, rec := range testRecords() {
		b, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		whole.Write(b)
	}
	data := whole.Bytes()
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	flipped := bytes.Clone(data)
	flipped[frameHeader+2] ^= 0x40
	f.Add(flipped)
	var huge [frameHeader]byte
	binary.LittleEndian.PutUint32(huge[0:4], maxFrame)
	f.Add(huge[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := readJournal(bytes.NewReader(data))
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		var again []byte
		for _, rec := range recs {
			b, err := encodeFrame(rec)
			if err != nil {
				t.Fatalf("re-encode replayed record: %v", err)
			}
			again = append(again, b...)
		}
		if !bytes.Equal(again, data[:valid]) {
			t.Fatalf("%d replayed records re-encode to %d bytes, not the %d-byte valid prefix",
				len(recs), len(again), valid)
		}
	})
}

// TestJournalDiskFaultAppend: an injected disk fault fails the append with
// ErrDiskFault; in short-write mode the torn half-frame it lands is
// discarded by the next replay, so the journal is append-consistent.
func TestJournalDiskFaultAppend(t *testing.T) {
	for _, short := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, journalFile)
		inj := faultinject.New(faultinject.Config{
			DiskEvery: 1, DiskAfter: 1, DiskShortWrite: short,
		})
		j, _, _, err := openJournal(path, inj)
		if err != nil {
			t.Fatal(err)
		}
		recs := testRecords()
		if err := j.append(recs[0]); err != nil {
			t.Fatalf("short=%v: first append: %v", short, err)
		}
		err = j.append(recs[1])
		if !errors.Is(err, faultinject.ErrDiskFault) {
			t.Fatalf("short=%v: second append err = %v, want ErrDiskFault", short, err)
		}
		j.close()

		if short {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			b0, _ := encodeFrame(recs[0])
			if info.Size() <= int64(len(b0)) {
				t.Fatalf("short write landed nothing: size=%d", info.Size())
			}
		}
		_, got, _, err := openJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].ID != recs[0].ID {
			t.Errorf("short=%v: replay after fault got %d records, want the 1 durable one",
				short, len(got))
		}
	}
}

// TestJournalCompact: compaction rewrites the file to exactly the given
// records, atomically, and the handle keeps appending afterwards.
func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), journalFile)
	j, _, _, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords() {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	keep := testRecords()[:2]
	if err := j.compact(keep); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if j.appends != 0 {
		t.Errorf("append counter not reset by compaction: %d", j.appends)
	}
	if err := j.append(journalRecord{Type: recShutdown}); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	j.close()

	_, got, torn, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(got) != len(keep)+1 {
		t.Fatalf("after compact: %d records torn=%d, want %d torn=0", len(got), torn, len(keep)+1)
	}
	if !reflect.DeepEqual(got[:len(keep)], keep) {
		t.Errorf("compacted records differ:\n got %+v\nwant %+v", got[:len(keep)], keep)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("compaction left its temp file behind")
	}
}
