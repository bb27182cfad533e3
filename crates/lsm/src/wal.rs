//! Write-ahead log.
//!
//! Every mutation is appended (as part of a record batch) to the active WAL
//! segment before it is applied to the memtable, giving the durability the
//! paper's recovery protocol assumes (§2.2, §5.3). Each memtable generation
//! owns one segment; after a flush persists the memtable into an SSTable, the
//! segment is deleted — the paper's "WAL roll-forward".
//!
//! Record layout (all little-endian):
//!
//! ```text
//! +----------+----------+------------------+
//! | crc: u32 | len: u32 | payload: len B   |
//! +----------+----------+------------------+
//! ```
//!
//! The payload is a batch: `count: varint`, then per cell
//! `kind: u8, ts: varint, key: len-prefixed, value: len-prefixed`.
//! Replay tolerates a torn tail (a partially written final record) by
//! stopping at the first record whose length or checksum fails to validate.
//!
//! ## Zero-filled tail
//!
//! A segment is kept zero-filled ahead of its write position: when a record
//! would cross the filled end, [`WalWriter`] first writes zeros up to the
//! next multiple of [`ZERO_FILL_STEP`], and the record then overwrites
//! them. A group-commit `fdatasync` therefore flushes data blocks that
//! already exist; on ext4 it no longer has to log a size change and commit
//! the journal, which a record appended past the end of the file forces on
//! every sync. The first `fdatasync` after an extension makes the new size
//! durable together with the record, so durability is plain POSIX
//! `fdatasync`.
//!
//! - The step stays small (256 KiB). Measured on ext4 with 1.1 KiB
//!   records, steps of 16–256 KiB cut the `fdatasync` p50 by roughly a
//!   third against appending, and steps of 4 MiB or more gained nothing.
//! - A record of at least one step (a large `put_batch`) is appended past
//!   the filled end with no zero-fill: zeroing ahead of it would double
//!   its write for one sync.
//! - Replay reads an all-zero header (crc 0, len 0) as the clean end of
//!   the segment. No real record has one: a record holds at least its
//!   count varint, so its `len` is never 0.
//! - On copy-on-write filesystems (btrfs, ZFS) an overwrite allocates new
//!   blocks like an append does: the scheme stays correct but is no faster.

use crate::types::{Cell, CellKind, LsmError, Result};
use crate::util::{crc32, get_len_prefixed, get_varint, put_len_prefixed, put_varint};
use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Maximum sane record payload; larger lengths are treated as corruption so a
/// torn length field cannot trigger a huge allocation.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Record header: `crc: u32, len: u32`.
const HEADER_LEN: usize = 8;

/// A segment is zero-filled ahead of its write position up to the next
/// multiple of this many bytes (see the module doc for why it is small).
pub const ZERO_FILL_STEP: u64 = 256 * 1024;

/// Source of every zero-fill write, so an extension allocates nothing.
static ZEROS: [u8; ZERO_FILL_STEP as usize] = [0; ZERO_FILL_STEP as usize];

/// Appender for one WAL segment.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    /// Buffered writes through the segment's one handle, opened at
    /// [`WalWriter::create`]; the group-commit leader fsyncs a clone of the
    /// `Arc`. Zero-fill goes straight to the handle at explicit offsets,
    /// which leaves the buffer's file cursor where it was.
    file: BufWriter<Arc<File>>,
    /// Bytes appended so far (including headers).
    written: u64,
    /// Length of the file: records, then zero-fill. Never below `written`.
    filled: u64,
    /// When true, `fsync` after every append (slower, fully durable). The
    /// engine exposes this as an option; tests use both modes.
    sync_on_append: bool,
}

impl WalWriter {
    /// Create (truncating) a new segment at `path`.
    pub fn create(path: impl Into<PathBuf>, sync_on_append: bool) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let file = BufWriter::new(Arc::new(file));
        Ok(Self { path, file, written: 0, filled: 0, sync_on_append })
    }

    /// Append a batch of cells as one atomic record, then flush (and fsync,
    /// in `sync_on_append` mode). Empty batches write nothing — a header
    /// plus fsync for zero cells is pure overhead.
    pub fn append(&mut self, cells: &[Cell]) -> Result<()> {
        if cells.is_empty() {
            return Ok(());
        }
        self.append_buffered(cells)?;
        if self.sync_on_append {
            self.sync()?;
        } else {
            self.file.flush()?;
        }
        Ok(())
    }

    /// Append a record into the user-space buffer **without** flushing or
    /// fsyncing. The group-commit path stages many records this way and
    /// makes them all durable with a single [`WalWriter::sync`] (or an
    /// fsync on the handle from [`WalWriter::flush_for_sync`]).
    ///
    /// If the record would cross the zero-filled end of the segment, the
    /// zeros ahead of it are written first, so that the record, buffered
    /// after them, overwrites them.
    pub fn append_buffered(&mut self, cells: &[Cell]) -> Result<()> {
        if cells.is_empty() {
            return Ok(());
        }
        let payload = encode_batch(cells);
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&crc32(&payload).to_le_bytes());
        header[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let record_len = (header.len() + payload.len()) as u64;
        let end = self.written + record_len;
        if record_len >= ZERO_FILL_STEP {
            // Big record: appended past the filled end as is.
            self.filled = self.filled.max(end);
        } else if end > self.filled {
            self.zero_fill(end.next_multiple_of(ZERO_FILL_STEP))?;
        }
        self.file.write_all(&header)?;
        self.file.write_all(&payload)?;
        self.written = end;
        Ok(())
    }

    /// Extend the segment with zeros from its filled end to `target`.
    fn zero_fill(&mut self, target: u64) -> std::io::Result<()> {
        while self.filled < target {
            let n = (target - self.filled).min(ZERO_FILL_STEP);
            self.file.get_ref().write_all_at(&ZEROS[..n as usize], self.filled)?;
            self.filled += n;
        }
        Ok(())
    }

    /// Flush the user-space buffer into the OS (no fsync).
    pub fn flush_os_buffer(&mut self) -> Result<()> {
        self.file.flush()?;
        Ok(())
    }

    /// Flush buffered data and fsync the file.
    pub fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }

    /// Flush buffered data into the OS and return the segment's shared
    /// file handle. The caller fsyncs it with no engine lock held, so
    /// concurrent writers keep staging while the group-commit leader waits
    /// on the disk.
    pub fn flush_for_sync(&mut self) -> Result<Arc<File>> {
        self.file.flush()?;
        Ok(Arc::clone(self.file.get_ref()))
    }

    /// Path of this segment.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes appended so far.
    pub fn written_bytes(&self) -> u64 {
        self.written
    }
}

fn encode_batch(cells: &[Cell]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_varint(&mut out, cells.len() as u64);
    for c in cells {
        out.push(c.key.kind.to_u8());
        put_varint(&mut out, c.key.ts);
        put_len_prefixed(&mut out, &c.key.user_key);
        put_len_prefixed(&mut out, &c.value);
    }
    out
}

fn decode_batch(payload: &[u8]) -> Result<Vec<Cell>> {
    let corrupt = |m: &str| LsmError::Corruption(format!("wal batch: {m}"));
    let (count, mut off) =
        get_varint(payload).ok_or_else(|| corrupt("truncated count"))?;
    let mut cells = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let kind_byte = *payload.get(off).ok_or_else(|| corrupt("truncated kind"))?;
        let kind = CellKind::from_u8(kind_byte).ok_or_else(|| corrupt("bad kind"))?;
        off += 1;
        let (ts, n) =
            get_varint(&payload[off..]).ok_or_else(|| corrupt("truncated ts"))?;
        off += n;
        let (key, n) =
            get_len_prefixed(&payload[off..]).ok_or_else(|| corrupt("truncated key"))?;
        let key = Bytes::copy_from_slice(key);
        off += n;
        let (value, n) =
            get_len_prefixed(&payload[off..]).ok_or_else(|| corrupt("truncated value"))?;
        let value = Bytes::copy_from_slice(value);
        off += n;
        cells.push(Cell { key: crate::types::InternalKey { user_key: key, ts, kind }, value });
    }
    if off != payload.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(cells)
}

/// Outcome of replaying a segment.
#[derive(Debug)]
pub struct WalReplay {
    /// All cells from records that validated, in append order.
    pub cells: Vec<Cell>,
    /// Number of whole records read.
    pub records: usize,
    /// Bytes those records take, headers included: the offset replay
    /// stopped at, where a zero-filled or torn tail begins.
    pub record_bytes: u64,
    /// True if the segment ended with a torn (incomplete or corrupt) record
    /// that was discarded — expected after a crash mid-append. A
    /// zero-filled tail is a clean end and does not set it.
    pub torn_tail: bool,
}

/// Read a WAL segment back, stopping at the first invalid record or at the
/// zero-filled tail.
pub fn replay(path: impl AsRef<Path>) -> Result<WalReplay> {
    let mut buf = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut buf)?;
    let mut cells = Vec::new();
    let mut records = 0usize;
    let mut off = 0usize;
    let mut torn_tail = false;
    while off < buf.len() {
        let header = &buf[off..buf.len().min(off + HEADER_LEN)];
        if header.iter().all(|&b| b == 0) {
            // Zero-fill past the last record (a step boundary may leave
            // less than a header of it): the clean end of the segment.
            break;
        }
        if header.len() < HEADER_LEN {
            torn_tail = true;
            break;
        }
        let crc = u32::from_le_bytes(header[..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            torn_tail = true;
            break;
        }
        let start = off + HEADER_LEN;
        let end = start + len as usize;
        if end > buf.len() {
            torn_tail = true;
            break;
        }
        let payload = &buf[start..end];
        if crc32(payload) != crc {
            torn_tail = true;
            break;
        }
        match decode_batch(payload) {
            Ok(mut batch) => cells.append(&mut batch),
            Err(_) => {
                torn_tail = true;
                break;
            }
        }
        records += 1;
        off = end;
    }
    Ok(WalReplay { cells, records, record_bytes: off as u64, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempdir_lite::TempDir;

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// One cell whose record (header included) is exactly `len` bytes; the
    /// assertion at each use pins the encoding arithmetic.
    fn cell_of_record_len(ts: u64, len: u64) -> Cell {
        // header 8 + count 1 + kind 1 + ts 1 + key 2 + value length 3.
        Cell::put("k", ts, vec![7u8; len as usize - 16])
    }

    fn sample_cells() -> Vec<Cell> {
        vec![
            Cell::put("alpha", 10, "one"),
            Cell::delete("beta", 11),
            Cell::put("gamma", 12, vec![0u8; 100]),
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal-1.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append(&sample_cells()).unwrap();
        w.append(&[Cell::put("delta", 13, "two")]).unwrap();
        w.sync().unwrap();
        let end = w.written_bytes();
        drop(w);

        assert_eq!(file_len(&path), ZERO_FILL_STEP, "zero-filled to one step");
        let r = replay(&path).unwrap();
        assert_eq!(r.records, 2);
        assert_eq!(r.record_bytes, end, "replay stops where the records end");
        assert!(!r.torn_tail);
        assert_eq!(r.cells.len(), 4);
        assert_eq!(r.cells[0].key.user_key, Bytes::from("alpha"));
        assert!(r.cells[1].is_tombstone());
        assert_eq!(r.cells[3].value, Bytes::from("two"));
    }

    #[test]
    fn empty_batch_writes_nothing() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, true).unwrap();
        w.append(&[]).unwrap();
        assert_eq!(w.written_bytes(), 0, "no header, no fsync for zero cells");
        drop(w);
        let r = replay(&path).unwrap();
        assert_eq!(r.records, 0);
        assert!(r.cells.is_empty());
        assert!(!r.torn_tail);
    }

    #[test]
    fn buffered_appends_become_durable_via_cloned_handle() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append_buffered(&[Cell::put("a", 1, "x")]).unwrap();
        w.append_buffered(&[Cell::put("b", 2, "y")]).unwrap();
        let f = w.flush_for_sync().unwrap();
        f.sync_data().unwrap();
        // Both records are on disk even though the writer never synced.
        let r = replay(&path).unwrap();
        assert_eq!(r.records, 2);
        assert_eq!(r.cells.len(), 2);
        drop(w);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, true).unwrap();
        w.append(&sample_cells()).unwrap();
        let first = w.written_bytes();
        w.append(&[Cell::put("tail", 20, "gone")]).unwrap();
        let end = w.written_bytes() as usize;
        drop(w);

        // Chop bytes off the final record to simulate a crash mid-append.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..end - 3]).unwrap();

        let r = replay(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records, 1);
        assert_eq!(r.record_bytes, first, "the torn record is not counted");
        assert_eq!(r.cells.len(), 3, "intact first record survives");
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append(&[Cell::put("a", 1, "x")]).unwrap();
        w.append(&[Cell::put("b", 2, "y")]).unwrap();
        let end = w.written_bytes() as usize;
        drop(w);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[end - 1] ^= 0xFF; // flip a payload byte of record 2
        std::fs::write(&path, &bytes).unwrap();

        let r = replay(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.cells.len(), 1);
    }

    #[test]
    fn record_torn_into_the_zero_fill_is_torn() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, true).unwrap();
        w.append(&sample_cells()).unwrap();
        w.append(&[Cell::put("tail", 20, "gone")]).unwrap();
        let end = w.written_bytes();
        drop(w);

        // The final record's last bytes never left the zeros they overwrite.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&[0; 3], end - 3).unwrap();
        drop(f);

        assert_eq!(file_len(&path), ZERO_FILL_STEP);
        let r = replay(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records, 1);
    }

    #[test]
    fn record_straddling_a_step_boundary_extends_the_fill() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append(&[cell_of_record_len(1, ZERO_FILL_STEP - 100)]).unwrap();
        assert_eq!(w.written_bytes(), ZERO_FILL_STEP - 100);
        assert_eq!(file_len(&path), ZERO_FILL_STEP);

        w.append(&[Cell::put("straddle", 2, vec![1u8; 1024])]).unwrap();
        assert!(w.written_bytes() > ZERO_FILL_STEP);
        assert_eq!(file_len(&path), 2 * ZERO_FILL_STEP, "filled to the next step");
        drop(w);

        let r = replay(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.records, 2);
        assert_eq!(r.cells[1].value, Bytes::from(vec![1u8; 1024]));
    }

    #[test]
    fn record_of_a_whole_step_is_appended_without_zero_fill() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append(&[Cell::put("small", 1, "x")]).unwrap();
        assert_eq!(file_len(&path), ZERO_FILL_STEP);

        w.append(&[cell_of_record_len(2, ZERO_FILL_STEP + 10)]).unwrap();
        let big_end = w.written_bytes();
        assert!(big_end > ZERO_FILL_STEP);
        assert_eq!(file_len(&path), big_end, "no zeros ahead of a big record");

        w.append(&[Cell::put("after", 3, "y")]).unwrap();
        assert_eq!(file_len(&path), 2 * ZERO_FILL_STEP, "the next small record fills again");
        drop(w);

        let r = replay(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.records, 3);
        assert_eq!(r.cells[2].key.user_key, Bytes::from("after"));
    }

    #[test]
    fn zero_tail_shorter_than_a_header_is_a_clean_end() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append(&[cell_of_record_len(1, ZERO_FILL_STEP - 4)]).unwrap();
        assert_eq!(w.written_bytes(), ZERO_FILL_STEP - 4);
        drop(w);

        assert_eq!(file_len(&path), ZERO_FILL_STEP);
        let r = replay(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.records, 1);
    }

    #[test]
    fn insane_length_field_is_corruption_not_allocation() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.path().join("wal.log");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records, 0);
    }

    #[test]
    fn written_bytes_tracks_appends() {
        let dir = TempDir::new("wal").unwrap();
        let mut w = WalWriter::create(dir.path().join("w.log"), false).unwrap();
        assert_eq!(w.written_bytes(), 0);
        w.append(&[Cell::put("k", 1, "v")]).unwrap();
        let after_one = w.written_bytes();
        assert!(after_one > 8);
        w.append(&[Cell::put("k", 2, "v")]).unwrap();
        assert_eq!(w.written_bytes(), after_one * 2);
    }

    #[test]
    fn replay_missing_file_is_io_error() {
        let dir = TempDir::new("wal").unwrap();
        let err = replay(dir.path().join("nope.log")).unwrap_err();
        assert!(matches!(err, LsmError::Io(_)));
    }

    #[test]
    fn decode_batch_rejects_trailing_garbage() {
        let mut payload = encode_batch(&[Cell::put("k", 1, "v")]);
        payload.push(0x7);
        assert!(decode_batch(&payload).is_err());
    }
}
