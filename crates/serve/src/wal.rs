//! The append-only write-ahead log: length-prefixed, checksummed records.
//!
//! ## On-disk format
//!
//! ```text
//! file   := MAGIC record*
//! MAGIC  := "CMWAL01\n"                      (8 bytes)
//! record := len:u32le kind:u8 payload[len] checksum:u64le
//! ```
//!
//! `len` counts the payload bytes only; `checksum` is FNV-1a 64 over
//! `kind` followed by the payload. A reader accepts the **longest valid
//! prefix**: the first record whose length runs past the file, whose
//! checksum fails, or whose kind is unknown ends the scan, and everything
//! before it is intact (a torn tail after a crash loses at most the
//! record being written — that is the durability contract [`WalWriter`]
//! provides by fsyncing each append).
//!
//! Encoding and scanning are pure byte-level functions so property tests
//! can exercise truncation and corruption without touching a filesystem.

use crate::failpoint::{self, Action};
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a ConfMask WAL, version 01.
pub const MAGIC: &[u8; 8] = b"CMWAL01\n";

/// Per-record framing overhead: length prefix + kind + checksum.
pub const RECORD_OVERHEAD: usize = 4 + 1 + 8;

/// Largest accepted payload (a corrupted length prefix must not make the
/// reader allocate gigabytes).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Record kinds, in wire order. Unknown kinds end a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// A job was accepted: payload carries the canonical submission.
    Created = 1,
    /// A worker started (or restarted) the job.
    Running = 2,
    /// The job reached a terminal state.
    Finished = 3,
    /// The artifact bundle of a successful job.
    Artifacts = 4,
    /// The job record was withdrawn (queue refused it after creation).
    Removed = 5,
    /// Recovery requeued an interrupted job.
    Requeued = 6,
    /// A full store snapshot (the single record of a snapshot file).
    Snapshot = 7,
}

impl Kind {
    /// Parses a wire kind byte.
    pub fn from_u8(b: u8) -> Option<Kind> {
        Some(match b {
            1 => Kind::Created,
            2 => Kind::Running,
            3 => Kind::Finished,
            4 => Kind::Artifacts,
            5 => Kind::Removed,
            6 => Kind::Requeued,
            7 => Kind::Snapshot,
            _ => return None,
        })
    }
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record kind.
    pub kind: Kind,
    /// The payload bytes (JSON in this crate's usage).
    pub payload: Vec<u8>,
}

/// FNV-1a 64-bit over `bytes`, continuing from `state` (pass
/// [`FNV_OFFSET`] to start).
pub fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn record_checksum(kind: u8, payload: &[u8]) -> u64 {
    fnv1a(payload, fnv1a(&[kind], FNV_OFFSET))
}

/// Encodes one record into its framed wire form.
pub fn encode_record(kind: Kind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&record_header(kind, payload));
    out.extend_from_slice(payload);
    out.extend_from_slice(&record_trailer(kind, payload));
    out
}

/// A record's frame before its payload: length, then kind.
fn record_header(kind: Kind, payload: &[u8]) -> [u8; 5] {
    let [a, b, c, d] = (payload.len() as u32).to_le_bytes();
    [a, b, c, d, kind as u8]
}

/// A record's frame after its payload: the checksum.
fn record_trailer(kind: Kind, payload: &[u8]) -> [u8; 8] {
    record_checksum(kind as u8, payload).to_le_bytes()
}

/// Writes one framed record with a single vectored write, as one
/// `write_all` of [`encode_record`]'s buffer would, but without copying
/// the payload into a frame buffer: a snapshot record holds the whole job
/// store, and the copy held it in memory once more. One call keeps the
/// record contiguous in an append-mode file even when another writer
/// appends to the same file concurrently; a short write continues where
/// it stopped, as `write_all` does.
fn write_record(file: &mut File, kind: Kind, payload: &[u8]) -> io::Result<()> {
    let header = record_header(kind, payload);
    let trailer = record_trailer(kind, payload);
    let mut slices = [
        IoSlice::new(&header),
        IoSlice::new(payload),
        IoSlice::new(&trailer),
    ];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match file.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What a scan of a WAL body found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// Every intact record, in append order.
    pub records: Vec<Record>,
    /// Bytes of the valid prefix (records only, magic excluded).
    pub valid_len: usize,
    /// Bytes discarded after the valid prefix (torn tail / corruption).
    pub discarded: usize,
}

/// Scans a WAL *body* (everything after the magic), accepting the longest
/// valid prefix. Never panics, whatever the input.
pub fn scan_body(body: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &body[pos..];
        if rest.len() < RECORD_OVERHEAD {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_PAYLOAD || rest.len() < RECORD_OVERHEAD + len {
            break;
        }
        let kind_byte = rest[4];
        let payload = &rest[5..5 + len];
        let mut checksum = [0u8; 8];
        checksum.copy_from_slice(&rest[5 + len..5 + len + 8]);
        if u64::from_le_bytes(checksum) != record_checksum(kind_byte, payload) {
            break;
        }
        let Some(kind) = Kind::from_u8(kind_byte) else {
            break;
        };
        records.push(Record {
            kind,
            payload: payload.to_vec(),
        });
        pos += RECORD_OVERHEAD + len;
    }
    Scan {
        records,
        valid_len: pos,
        discarded: body.len() - pos,
    }
}

/// Reads and scans a WAL file. A missing file is an empty log; a file
/// without the magic is treated as fully discarded (zero valid records),
/// not an error — recovery must always make progress.
pub fn read_wal(path: &Path) -> io::Result<Scan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(Scan {
                records: Vec::new(),
                valid_len: 0,
                discarded: 0,
            })
        }
        Err(e) => return Err(e),
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Ok(Scan {
            records: Vec::new(),
            valid_len: 0,
            discarded: bytes.len(),
        });
    }
    Ok(scan_body(&bytes[MAGIC.len()..]))
}

/// The appender: one open file, fsync per record, fail-point aware.
///
/// After an injected crash the writer is *halted*: the file stays exactly
/// as the crash left it and every later call silently does nothing, which
/// is what the disk of a killed process looks like to the next boot.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    halted: bool,
    appends: u64,
}

impl WalWriter {
    /// Opens `path` for appending, writing the magic if the file is new,
    /// rewriting it if a crash tore or corrupted the header, or
    /// truncating a file whose valid prefix ends before its tail
    /// (dropping a torn record once, at open, keeps every later append
    /// contiguous with the valid prefix).
    pub fn open(path: &Path, valid_len: usize) -> io::Result<WalWriter> {
        // Append mode: every write lands at the current end of file, so
        // reopening an existing log continues it rather than overwriting
        // the magic at offset zero.
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let end = file.metadata()?.len();
        if end == 0 {
            let mut f = &file;
            f.write_all(MAGIC)?;
            f.sync_all()?;
        } else {
            let mut f = &file;
            let mut header = [0u8; 8];
            f.seek(io::SeekFrom::Start(0))?;
            let header_ok = f.read_exact(&mut header).is_ok() && &header == MAGIC;
            if !header_ok {
                // A torn or corrupted magic makes the whole file
                // unreadable (readers discard a magic-less log), so
                // appending behind it would silently lose every record of
                // the new epoch. Start the file over.
                file.set_len(0)?;
                f.write_all(MAGIC)?;
                f.sync_all()?;
                confmask_obs::counter_add("serve.wal.header_repairs", 1);
                confmask_obs::warn!(
                    "serve.wal",
                    "repaired torn/corrupt header at {}; prior epoch discarded",
                    path.display()
                );
            } else {
                let valid_end = (MAGIC.len() + valid_len) as u64;
                if valid_end < end {
                    file.set_len(valid_end)?;
                    file.sync_all()?;
                    confmask_obs::counter_add("serve.wal.torn_records", 1);
                }
            }
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            halted: false,
            appends: 0,
        })
    }

    /// Whether an injected crash froze this writer.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Freezes the writer as an injected crash would (fail-point sites
    /// outside the append path, e.g. mid-snapshot).
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Records appended through this writer (fail-point sweep sizing).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Appends one record and fsyncs. Consults the `wal.append` fail
    /// point; injected errors surface as `Err`, injected crashes halt the
    /// writer (the caller observes `Ok` for `sync`, `Err` otherwise —
    /// exactly the ambiguity a real crash leaves).
    pub fn append(&mut self, kind: Kind, payload: &[u8]) -> io::Result<()> {
        if self.halted {
            return Ok(());
        }
        let action = failpoint::check("wal.append");
        match action {
            Some(Action::IoError) | Some(Action::DiskFull) => {
                return Err(failpoint::injected_error(action.unwrap()));
            }
            Some(Action::CrashBefore) => {
                self.halted = true;
                return Err(io::Error::other("injected crash before append"));
            }
            _ => {}
        }
        if action == Some(Action::Torn) {
            // A torn write: half the record reaches the disk, then the
            // process dies. `max(1)` so even a tiny record is actually
            // torn rather than skipped.
            let bytes = encode_record(kind, payload);
            let half = (bytes.len() / 2).max(1);
            let _ = self.file.write_all(&bytes[..half]);
            let _ = self.file.sync_all();
            self.halted = true;
            return Err(io::Error::other("injected torn write"));
        }
        write_record(&mut self.file, kind, payload)?;
        self.file.sync_all()?;
        self.appends += 1;
        confmask_obs::counter_add("serve.wal.appends", 1);
        confmask_obs::counter_add("serve.wal.bytes", (RECORD_OVERHEAD + payload.len()) as u64);
        if action == Some(Action::CrashAfter) {
            self.halted = true;
        }
        Ok(())
    }

    /// Truncates the log to empty (post-snapshot compaction). Honors the
    /// halted state like any other write.
    pub fn reset(&mut self) -> io::Result<()> {
        if self.halted {
            return Ok(());
        }
        self.file.set_len(MAGIC.len() as u64)?;
        self.file.sync_all()?;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "confmask-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn body(records: &[(Kind, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (kind, payload) in records {
            out.extend_from_slice(&encode_record(*kind, payload));
        }
        out
    }

    #[test]
    fn encode_scan_round_trip() {
        let bytes = body(&[
            (Kind::Created, br#"{"id":1}"#),
            (Kind::Running, b""),
            (Kind::Finished, br#"{"state":"done"}"#),
        ]);
        let scan = scan_body(&bytes);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.discarded, 0);
        assert_eq!(scan.records[0].kind, Kind::Created);
        assert_eq!(scan.records[0].payload, br#"{"id":1}"#);
        // Re-encoding the scan reproduces the input byte-exactly.
        let reencoded: Vec<u8> = scan
            .records
            .iter()
            .flat_map(|r| encode_record(r.kind, &r.payload))
            .collect();
        assert_eq!(reencoded, bytes);
    }

    #[test]
    fn torn_tail_recovers_the_valid_prefix() {
        let bytes = body(&[(Kind::Created, b"abc"), (Kind::Finished, b"defgh")]);
        let first_len = RECORD_OVERHEAD + 3;
        for cut in first_len..bytes.len() {
            let scan = scan_body(&bytes[..cut]);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, first_len);
            assert_eq!(scan.discarded, cut - first_len);
        }
    }

    #[test]
    fn corruption_ends_the_scan_without_panicking() {
        let clean = body(&[(Kind::Created, b"abc"), (Kind::Finished, b"def")]);
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x40;
            let scan = scan_body(&corrupt); // must not panic
            assert!(scan.records.len() <= 2);
            assert!(scan.valid_len + scan.discarded == corrupt.len());
        }
        // A length prefix pointing past the buffer is a torn tail.
        let mut huge = clean;
        huge[0] = 0xFF;
        huge[1] = 0xFF;
        huge[2] = 0xFF;
        huge[3] = 0x7F;
        assert_eq!(scan_body(&huge).records.len(), 0);
    }

    #[test]
    fn unknown_kind_ends_the_scan() {
        let mut bytes = body(&[(Kind::Created, b"x")]);
        // Hand-frame a record with kind 200 and a valid checksum.
        let payload = b"y";
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.push(200);
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&record_checksum(200, payload).to_le_bytes());
        let scan = scan_body(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.discarded > 0);
    }

    #[test]
    fn writer_appends_survive_reopen() {
        // Appending traverses the `wal.append` fail point; serialize with
        // tests that arm it.
        let _guard = crate::failpoint::exclusive();
        crate::failpoint::clear();
        let path = tmp("reopen");
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(Kind::Created, br#"{"id":1}"#).unwrap();
        w.append(Kind::Running, br#"{"id":1,"attempt":1}"#).unwrap();
        drop(w);
        // The writer frames each payload in place: the file holds exactly
        // the encoded records.
        let written = std::fs::read(&path).unwrap();
        assert_eq!(
            written[MAGIC.len()..],
            body(&[
                (Kind::Created, br#"{"id":1}"#),
                (Kind::Running, br#"{"id":1,"attempt":1}"#),
            ])[..]
        );
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.discarded, 0);
        // Append more after reopening at the valid prefix.
        let mut w = WalWriter::open(&path, scan.valid_len).unwrap();
        w.append(Kind::Finished, b"{}").unwrap();
        drop(w);
        assert_eq!(read_wal(&path).unwrap().records.len(), 3);
    }

    #[test]
    fn reopen_truncates_a_torn_tail() {
        let _guard = crate::failpoint::exclusive();
        crate::failpoint::clear();
        let path = tmp("torn");
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(Kind::Created, b"abc").unwrap();
        drop(w);
        // Simulate a crash mid-append: garbage tail bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 42]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.discarded > 0);
        let mut w = WalWriter::open(&path, scan.valid_len).unwrap();
        w.append(Kind::Finished, b"def").unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2, "tail dropped, appends contiguous");
        assert_eq!(scan.discarded, 0);
    }

    #[test]
    fn torn_magic_is_repaired_so_later_appends_survive() {
        let _guard = crate::failpoint::exclusive();
        crate::failpoint::clear();
        // A crash tore the initial magic write: fewer than 8 bytes exist.
        let path = tmp("torn-magic");
        std::fs::write(&path, &MAGIC[..3]).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.valid_len, 0);
        let mut w = WalWriter::open(&path, scan.valid_len).unwrap();
        w.append(Kind::Created, b"fresh").unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "append after repair is readable");
        assert_eq!(scan.records[0].payload, b"fresh");
        assert_eq!(scan.discarded, 0);
    }

    #[test]
    fn corrupt_magic_is_repaired_so_later_appends_survive() {
        let _guard = crate::failpoint::exclusive();
        crate::failpoint::clear();
        // The header bytes exist but are garbage (e.g. a misdirected
        // write): the old epoch is unreadable and must not poison the new.
        let path = tmp("bad-magic");
        let mut bytes = b"NOTMAGIC".to_vec();
        bytes.extend_from_slice(&encode_record(Kind::Created, b"old"));
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 0, "magic-less file is fully discarded");
        let mut w = WalWriter::open(&path, scan.valid_len).unwrap();
        w.append(Kind::Created, b"new-epoch").unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, b"new-epoch");
        assert_eq!(scan.discarded, 0);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let scan = read_wal(Path::new("/definitely/not/here.wal")).unwrap();
        assert!(scan.records.is_empty());
    }

    #[test]
    fn injected_faults_follow_the_schedule() {
        let _guard = crate::failpoint::exclusive();
        crate::failpoint::clear();
        let path = tmp("inject");
        let mut w = WalWriter::open(&path, 0).unwrap();
        crate::failpoint::arm("wal.append", Action::IoError, 2);
        w.append(Kind::Created, b"one").unwrap();
        let err = w.append(Kind::Created, b"two").unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert!(!w.halted(), "an I/O error does not kill the process");
        w.append(Kind::Created, b"three").unwrap();

        crate::failpoint::arm("wal.append", Action::Torn, 1);
        assert!(w.append(Kind::Created, b"four").is_err());
        assert!(w.halted(), "a torn write is a crash");
        // Halted writer: every later operation is silently ignored.
        w.append(Kind::Created, b"five").unwrap();
        crate::failpoint::clear();
        drop(w);

        let scan = read_wal(&path).unwrap();
        let payloads: Vec<&[u8]> =
            scan.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, vec![&b"one"[..], &b"three"[..]]);
        assert!(scan.discarded > 0, "the torn half-record is on disk");
    }
}
