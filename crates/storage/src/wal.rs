//! Write-ahead log: length+CRC32-framed records, group fsync, torn-tail
//! tolerant decoding.
//!
//! Every frame on disk is `[len: u32 LE][crc32: u32 LE][payload]` where
//! the CRC covers the payload only.  A *commit* is a run of operation
//! records ([`WalRecord::CreateTable`], [`WalRecord::DropTable`],
//! [`WalRecord::AppendRows`]) terminated by a
//! [`WalRecord::EpochPublish`] marker carrying the epoch the catalog
//! published; recovery applies a commit's operations only once its
//! marker is fully on disk, so a torn commit is invisible.
//!
//! [`WalWriter::commit`] writes all frames of a commit with **one**
//! backend append, then syncs according to the [`FlushPolicy`]:
//! `EveryCommit` makes every acknowledged commit durable (the crash
//! oracle runs this mode), `EveryN` amortizes fsync over n commits
//! (group commit), `Manual` leaves syncing to checkpoints and explicit
//! [`WalWriter::sync`] calls.
//!
//! Decoding ([`decode_stream`]) never fails on a damaged tail: a short
//! header, an oversized length, a CRC mismatch or an undecodable payload
//! all terminate the scan, reporting the prefix that was valid so
//! recovery can truncate the file there.

use tcudb_types::{DataType, TcuError, TcuResult, Value};

use crate::backend::AppendHandle;
use crate::retry::RetryPolicy;
use crate::schema::{ColumnDef, Schema};

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte table
/// (the CRC of a single byte), and `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes — so eight input bytes fold into the
/// running CRC with eight independent lookups instead of a chain of
/// eight dependent ones.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// `CRC_TABLES[k][b]`: the CRC of byte `b` followed by `k` zero bytes.
#[inline]
fn lane(k: usize, b: u8) -> u32 {
    // lint: allow(panic) k is a literal 0..8 at every call site and b is a byte, both inside the [8][256] table
    CRC_TABLES[k][b as usize]
}

/// One byte of the CRC recurrence (the tail loop of [`crc32`], and the
/// whole of the byte-at-a-time form it is tested against).
fn crc32_step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ lane(0, (crc & 0xFF) as u8 ^ b)
}

/// CRC32 (IEEE) of `bytes` — the checksum used by every WAL frame,
/// segment file, manifest and TCUP frame.  Slice-by-8: eight bytes per
/// step, the remainder (at most seven) one at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let (words, tail) = bytes.as_chunks::<8>();
    for &[a, b, c, d, e, f, g, h] in words {
        let lo = crc ^ (a as u32 | (b as u32) << 8 | (c as u32) << 16 | (d as u32) << 24);
        crc = lane(7, lo as u8)
            ^ lane(6, (lo >> 8) as u8)
            ^ lane(5, (lo >> 16) as u8)
            ^ lane(4, (lo >> 24) as u8)
            ^ lane(3, e)
            ^ lane(2, f)
            ^ lane(1, g)
            ^ lane(0, h);
    }
    for &b in tail {
        crc = crc32_step(crc, b);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian codec helpers
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            out.push(2);
            put_f64(out, *f);
        }
        Value::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

pub(crate) fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u64(out, schema.len() as u64);
    for def in schema.columns() {
        put_str(out, &def.name);
        out.push(match def.data_type {
            DataType::Int64 => 0,
            DataType::Float64 => 1,
            DataType::Text => 2,
        });
    }
}

fn corrupt(what: &str) -> TcuError {
    TcuError::Io(format!("corrupt record: {what}"))
}

/// Bounds-checked little-endian reader over a byte slice; every decode
/// error is a typed [`TcuError::Io`], never a panic.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> TcuResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("length overflow"))?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt("truncated field"))?;
        self.pos = end;
        Ok(bytes)
    }

    pub(crate) fn u8(&mut self) -> TcuResult<u8> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    pub(crate) fn u32(&mut self) -> TcuResult<u32> {
        let b = self.take(4)?;
        let mut le = [0u8; 4];
        le.copy_from_slice(b);
        Ok(u32::from_le_bytes(le))
    }

    pub(crate) fn u64(&mut self) -> TcuResult<u64> {
        let b = self.take(8)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        Ok(u64::from_le_bytes(le))
    }

    pub(crate) fn i64(&mut self) -> TcuResult<i64> {
        Ok(self.u64()? as i64)
    }

    pub(crate) fn f64(&mut self) -> TcuResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> TcuResult<String> {
        let len = self.u64()?;
        if len > self.buf.len() as u64 {
            return Err(corrupt("string length exceeds buffer"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not UTF-8"))
    }

    pub(crate) fn value(&mut self) -> TcuResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Float(self.f64()?)),
            3 => Ok(Value::Text(self.str()?)),
            t => Err(corrupt(&format!("unknown value tag {t}"))),
        }
    }

    pub(crate) fn data_type(&mut self) -> TcuResult<DataType> {
        match self.u8()? {
            0 => Ok(DataType::Int64),
            1 => Ok(DataType::Float64),
            2 => Ok(DataType::Text),
            t => Err(corrupt(&format!("unknown data type tag {t}"))),
        }
    }

    pub(crate) fn schema(&mut self) -> TcuResult<Schema> {
        let n = self.u64()?;
        if n > self.buf.len() as u64 {
            return Err(corrupt("schema width exceeds buffer"));
        }
        let mut defs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name = self.str()?;
            let dt = self.data_type()?;
            defs.push(ColumnDef::new(name, dt));
        }
        Ok(Schema::new(defs))
    }
}

// ---------------------------------------------------------------------------
// Records and framing
// ---------------------------------------------------------------------------

/// One logical WAL record.  Operations between two
/// [`WalRecord::EpochPublish`] markers form a commit and are applied
/// atomically (or not at all) by recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table (re)definition: name plus column schema.  Emitted by
    /// table registration; any pre-existing rows follow as
    /// [`WalRecord::AppendRows`] records in the same commit.
    CreateTable {
        /// Lower-cased table name as registered in the catalog.
        name: String,
        /// Column names and types.
        schema: Schema,
    },
    /// A table removal.
    DropTable {
        /// Lower-cased table name.
        name: String,
    },
    /// A batch of rows appended to an existing table, row-major.
    AppendRows {
        /// Lower-cased table name.
        name: String,
        /// The appended rows; every row has the table's arity.
        rows: Vec<Vec<Value>>,
    },
    /// Commit marker: the catalog epoch this commit published.
    EpochPublish {
        /// The published epoch.
        epoch: u64,
    },
}

const TAG_CREATE: u8 = 1;
const TAG_DROP: u8 = 2;
const TAG_APPEND: u8 = 3;
const TAG_PUBLISH: u8 = 4;

impl WalRecord {
    /// Encode the record payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::CreateTable { name, schema } => {
                out.push(TAG_CREATE);
                put_str(&mut out, name);
                put_schema(&mut out, schema);
            }
            WalRecord::DropTable { name } => {
                out.push(TAG_DROP);
                put_str(&mut out, name);
            }
            WalRecord::AppendRows { name, rows } => {
                out.push(TAG_APPEND);
                put_str(&mut out, name);
                put_u64(&mut out, rows.len() as u64);
                put_u64(&mut out, rows.first().map(|r| r.len()).unwrap_or(0) as u64);
                for row in rows {
                    for v in row {
                        put_value(&mut out, v);
                    }
                }
            }
            WalRecord::EpochPublish { epoch } => {
                out.push(TAG_PUBLISH);
                put_u64(&mut out, *epoch);
            }
        }
        out
    }

    /// Decode one record payload.
    pub fn decode_payload(payload: &[u8]) -> TcuResult<WalRecord> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            TAG_CREATE => WalRecord::CreateTable {
                name: c.str()?,
                schema: c.schema()?,
            },
            TAG_DROP => WalRecord::DropTable { name: c.str()? },
            TAG_APPEND => {
                let name = c.str()?;
                let nrows = c.u64()?;
                let ncols = c.u64()?;
                if nrows.saturating_mul(ncols) > payload.len() as u64 {
                    return Err(corrupt("row count exceeds payload"));
                }
                let mut rows = Vec::with_capacity(nrows as usize);
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols as usize);
                    for _ in 0..ncols {
                        row.push(c.value()?);
                    }
                    rows.push(row);
                }
                WalRecord::AppendRows { name, rows }
            }
            TAG_PUBLISH => WalRecord::EpochPublish { epoch: c.u64()? },
            t => return Err(corrupt(&format!("unknown record tag {t}"))),
        };
        if !c.is_done() {
            return Err(corrupt("trailing bytes after record"));
        }
        Ok(rec)
    }
}

/// Append one `[len][crc][payload]` frame for `record` to `out`.
pub fn encode_frame(out: &mut Vec<u8>, record: &WalRecord) -> TcuResult<()> {
    let payload = record.encode_payload();
    if payload.len() > u32::MAX as usize {
        return Err(TcuError::Io(format!(
            "WAL record payload of {} bytes exceeds the 4 GiB frame limit",
            payload.len()
        )));
    }
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
    Ok(())
}

/// The outcome of scanning a WAL byte stream.
#[derive(Debug)]
pub struct DecodedWal {
    /// Every decodable record, paired with the byte offset just *past*
    /// its frame (a valid truncation point).
    pub records: Vec<(WalRecord, u64)>,
    /// Length of the valid prefix; bytes past this are a torn tail.
    pub valid_len: u64,
    /// True when the scan stopped before the end of the buffer (short
    /// header, bad length, CRC mismatch, or undecodable payload).
    pub torn: bool,
}

/// Scan `bytes` as a sequence of frames, stopping — never failing — at
/// the first damage.
pub fn decode_stream(bytes: &[u8]) -> DecodedWal {
    let mut records = Vec::new();
    let mut pos: usize = 0;
    let torn = loop {
        if pos == bytes.len() {
            break false; // clean end
        }
        let Some(header) = bytes.get(pos..pos + 8) else {
            break true; // short header
        };
        let mut le = [0u8; 4];
        le.copy_from_slice(&header[..4]);
        let len = u32::from_le_bytes(le) as usize;
        le.copy_from_slice(&header[4..8]);
        let crc = u32::from_le_bytes(le);
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break true; // torn payload
        };
        if crc32(payload) != crc {
            break true; // bit rot or torn overwrite
        }
        let Ok(record) = WalRecord::decode_payload(payload) else {
            break true; // CRC matched but the payload is from the future
        };
        pos += 8 + len;
        records.push((record, pos as u64));
    };
    DecodedWal {
        records,
        valid_len: pos as u64,
        torn,
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// When the WAL makes appended commits durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// fsync after every commit: an acknowledged write is durable.
    #[default]
    EveryCommit,
    /// Group commit: fsync once every `n` commits (and at checkpoints).
    EveryN(u32),
    /// Never fsync automatically; callers invoke [`WalWriter::sync`].
    Manual,
}

/// Appends framed commits to one log file through an [`AppendHandle`],
/// syncing per [`FlushPolicy`].
pub struct WalWriter {
    handle: Box<dyn AppendHandle>,
    policy: FlushPolicy,
    unsynced_commits: u32,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("policy", &self.policy)
            .field("len", &self.handle.len())
            .field("unsynced_commits", &self.unsynced_commits)
            .finish()
    }
}

impl WalWriter {
    /// Wrap an open append handle.
    pub fn new(handle: Box<dyn AppendHandle>, policy: FlushPolicy) -> WalWriter {
        WalWriter {
            handle,
            policy,
            unsynced_commits: 0,
        }
    }

    /// Append one commit — `ops` followed by an [`WalRecord::EpochPublish`]
    /// marker for `epoch` — as a single backend append, then sync if the
    /// flush policy says so.
    pub fn commit(&mut self, ops: &[WalRecord], epoch: u64) -> TcuResult<()> {
        self.commit_with_retry(ops, epoch, &RetryPolicy::none())
    }

    /// [`WalWriter::commit`], retrying transient backend faults under
    /// `retry`.
    ///
    /// The append and the sync retry *independently*: a transient append
    /// failure had no effect (the fault model guarantees it), so the same
    /// bytes are appended again; a transient sync failure retries only
    /// the sync, never re-appending frames that already landed — a
    /// whole-commit retry there would duplicate the commit in the log.
    pub fn commit_with_retry(
        &mut self,
        ops: &[WalRecord],
        epoch: u64,
        retry: &RetryPolicy,
    ) -> TcuResult<()> {
        let mut buf = Vec::new();
        for op in ops {
            encode_frame(&mut buf, op)?;
        }
        encode_frame(&mut buf, &WalRecord::EpochPublish { epoch })?;
        retry.run(|| self.handle.append(&buf))?;
        self.unsynced_commits += 1;
        let should_sync = match self.policy {
            FlushPolicy::EveryCommit => true,
            FlushPolicy::EveryN(n) => self.unsynced_commits >= n.max(1),
            FlushPolicy::Manual => false,
        };
        if should_sync {
            self.sync_with_retry(retry)?;
        }
        Ok(())
    }

    /// fsync the log, making every appended commit durable.
    pub fn sync(&mut self) -> TcuResult<()> {
        self.handle.sync()?;
        self.unsynced_commits = 0;
        Ok(())
    }

    /// [`WalWriter::sync`], retrying transient backend faults.
    pub fn sync_with_retry(&mut self, retry: &RetryPolicy) -> TcuResult<()> {
        retry.run(|| self.handle.sync())?;
        self.unsynced_commits = 0;
        Ok(())
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.handle.len()
    }

    /// True when the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.handle.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultSpec, MemBackend, StorageBackend};
    use tcudb_types::DataType;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                schema: Schema::from_pairs(&[("id", DataType::Int64), ("s", DataType::Text)]),
            },
            WalRecord::AppendRows {
                name: "t".into(),
                rows: vec![
                    vec![Value::Int(1), Value::Text("a".into())],
                    vec![Value::Int(-2), Value::Null],
                ],
            },
            WalRecord::DropTable { name: "u".into() },
            WalRecord::EpochPublish { epoch: 42 },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| crc32_step(crc, b))
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_loop() {
        // Every length 0..=64 at every alignment of the slice start
        // within a word, over bytes that exercise every table row.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        };
        let buf: Vec<u8> = (0..64 + 8).map(|_| next()).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let slice = &buf[align..align + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "len {len} at offset {align}"
                );
            }
        }
        for _ in 0..2 {
            let big: Vec<u8> = (0..1 << 20).map(|_| next()).collect();
            assert_eq!(crc32(&big), crc32_bytewise(&big));
            assert_eq!(crc32(&big[3..]), crc32_bytewise(&big[3..]));
        }
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let payload = rec.encode_payload();
            assert_eq!(WalRecord::decode_payload(&payload).unwrap(), rec);
        }
    }

    #[test]
    fn float_and_null_values_round_trip() {
        let rec = WalRecord::AppendRows {
            name: "f".into(),
            rows: vec![vec![Value::Float(1.5), Value::Float(-0.0), Value::Null]],
        };
        let payload = rec.encode_payload();
        assert_eq!(WalRecord::decode_payload(&payload).unwrap(), rec);
    }

    #[test]
    fn stream_round_trips_and_reports_clean_end() {
        let mut buf = Vec::new();
        for rec in sample_records() {
            encode_frame(&mut buf, &rec).unwrap();
        }
        let decoded = decode_stream(&buf);
        assert!(!decoded.torn);
        assert_eq!(decoded.valid_len, buf.len() as u64);
        let recs: Vec<WalRecord> = decoded.records.into_iter().map(|(r, _)| r).collect();
        assert_eq!(recs, sample_records());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut buf = Vec::new();
        for rec in sample_records() {
            encode_frame(&mut buf, &rec).unwrap();
        }
        let full = buf.len();
        // Chop mid-final-frame: everything before the last frame survives.
        for cut in [full - 1, full - 5, full - 11] {
            let decoded = decode_stream(&buf[..cut]);
            assert!(decoded.torn, "cut at {cut}");
            assert!(decoded.valid_len <= cut as u64);
            // Re-scanning the valid prefix is clean.
            let again = decode_stream(&buf[..decoded.valid_len as usize]);
            assert!(!again.torn);
            assert_eq!(again.records.len(), decoded.records.len());
        }
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_damaged_frame() {
        let mut buf = Vec::new();
        for rec in sample_records() {
            encode_frame(&mut buf, &rec).unwrap();
        }
        let clean_count = decode_stream(&buf).records.len();
        // Flip one bit in the second frame's payload.
        let mut damaged = buf.clone();
        let second_frame_start = {
            let first = decode_stream(&buf).records[0].1;
            first as usize
        };
        damaged[second_frame_start + 9] ^= 0x40;
        let decoded = decode_stream(&damaged);
        assert!(decoded.torn);
        assert_eq!(decoded.records.len(), 1);
        assert!(decoded.records.len() < clean_count);
    }

    #[test]
    fn absurd_length_field_is_treated_as_torn() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &WalRecord::EpochPublish { epoch: 1 }).unwrap();
        let valid = buf.len();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]);
        let decoded = decode_stream(&buf);
        assert!(decoded.torn);
        assert_eq!(decoded.valid_len, valid as u64);
    }

    #[test]
    fn writer_group_commit_defers_sync() {
        let be = MemBackend::new();
        let mut w = WalWriter::new(be.appender("wal").unwrap(), FlushPolicy::EveryN(3));
        for epoch in 1..=2 {
            w.commit(&[], epoch).unwrap();
        }
        // Two commits appended, none synced yet: a reboot may tear them.
        let before = be.read_all("wal").unwrap().len();
        assert!(before > 0);
        w.commit(&[], 3).unwrap(); // third commit triggers the group sync
        let decoded = decode_stream(&be.read_all("wal").unwrap());
        assert_eq!(decoded.records.len(), 3);
    }

    #[test]
    fn every_commit_policy_survives_any_reboot() {
        let be = MemBackend::with_faults(FaultSpec {
            torn_seed: 99,
            ..Default::default()
        });
        let mut w = WalWriter::new(be.appender("wal").unwrap(), FlushPolicy::EveryCommit);
        w.commit(&sample_records()[..3], 7).unwrap();
        be.reboot();
        let decoded = decode_stream(&be.read_all("wal").unwrap());
        assert!(!decoded.torn);
        assert_eq!(
            decoded.records.last().map(|(r, _)| r.clone()),
            Some(WalRecord::EpochPublish { epoch: 7 })
        );
    }
}
