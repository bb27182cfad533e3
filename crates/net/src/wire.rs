//! The Diff-Index wire protocol: compact, length-prefixed binary frames.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! request:  [u32 len][u8 version=1][u8 opcode][u64 request_id][body]
//! response: [u32 len][u8 version=1][u8 status][u64 request_id][body]
//! ```
//!
//! `len` counts everything after itself (version byte onward). The version
//! byte leads every frame so the format can evolve; a peer speaking an
//! unknown version is rejected with a `Protocol` error before any body
//! bytes are interpreted. `request_id` is chosen by the client and echoed
//! verbatim, which lets a connection carry pipelined requests whose
//! responses arrive out of order.
//!
//! `status` is `0` for success (body is the op-specific result) or `1` for
//! failure (body is an encoded [`ClusterError`]).
//!
//! ## Requests and responses
//!
//! [`Request`] has one variant per [`OpCode`] and [`Response`] one variant
//! per result shape. Each has exactly one encoder and one decoder, here, so
//! every body layout is written once. [`Request::class`] sorts a request
//! into the [`Class`] the client routes it by and the server checks it by.
//!
//! ## Body primitives
//!
//! Variable-length byte strings are `[u32 len][bytes]`; optionals are a
//! `u8` tag (0 = none, 1 = some); lists are `[u32 count][items]`. Row keys
//! travel *raw* — the order-preserving escaping of `cluster::encoding` is a
//! storage-key concern and is applied server-side, so the wire stays free
//! of double-escaping bugs.

use bytes::{BufMut, Bytes, BytesMut};
use diff_index_cluster::{
    ClusterError, ColumnValue, PutOutcome, RegionId, Result, RowGroup, ServerId,
};
use diff_index_core::{IndexScheme, IndexSpec};
use diff_index_lsm::VersionedValue;
use std::borrow::Cow;

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Hard cap on a frame's `len` field (16 MiB): a corrupt or hostile length
/// prefix must not trigger an unbounded allocation.
pub const MAX_FRAME: u32 = 16 << 20;

/// Response status: success.
pub const STATUS_OK: u8 = 0;
/// Response status: body carries an encoded error.
pub const STATUS_ERR: u8 = 1;

/// Declares [`OpCode`], its byte and name tables, and [`Request`] from one
/// list: each opcode is a request variant with its body's fields.
macro_rules! opcodes {
    (
        $(#[$op_meta:meta])* pub enum OpCode;
        $(#[$req_meta:meta])* pub enum Request<$lt:lifetime>;
        $($(#[$doc:meta])+ $op:ident $(($($field:ty),+))? = $byte:literal => $name:literal,)+
    ) => {
        $(#[$op_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum OpCode {
            $($(#[$doc])+ $op = $byte,)+
        }

        impl OpCode {
            /// Decode an opcode byte.
            pub fn from_u8(b: u8) -> Option<Self> {
                match b {
                    $($byte => Some(OpCode::$op),)+
                    _ => None,
                }
            }

            /// Stable human name (metrics labels, logs).
            pub fn name(self) -> &'static str {
                match self {
                    $(OpCode::$op => $name,)+
                }
            }

            /// Every defined opcode, for metrics iteration.
            pub const fn all() -> &'static [OpCode] {
                &[$(OpCode::$op),+]
            }
        }

        $(#[$req_meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum Request<$lt> {
            $($(#[$doc])+ $op $(($($field),+))?,)+
        }

        impl Request<'_> {
            /// The request's opcode.
            pub fn op(&self) -> OpCode {
                match self {
                    $(Request::$op { .. } => OpCode::$op,)+
                }
            }
        }
    };
}

/// Index schemes by their wire code (the position in this list).
const SCHEMES: [IndexScheme; 4] = [
    IndexScheme::SyncFull,
    IndexScheme::SyncInsert,
    IndexScheme::AsyncSimple,
    IndexScheme::AsyncSession,
];

/// One row of a [`Request::PutBatch`]: `(row, columns, epoch)`.
pub type BatchRow<'a> = (&'a [u8], Cow<'a, [ColumnValue]>, u64);

opcodes! {
    /// Request opcodes. Grouped by nibble: `0x0_` control, `0x1_` writes,
    /// `0x2_` reads, `0x3_` tables, `0x4_` index administration.
    pub enum OpCode;
    /// A request, one variant per [`OpCode`]. Fields are listed in wire
    /// order and mirror the parameters of the `Store` method of the same
    /// name. `epoch` is the region epoch the client's partition map stamps
    /// on a write (`0` = unstamped, never fenced). A request borrows its
    /// payload: the client encodes straight from its caller's slices, and
    /// the server decodes without copying table names or row keys.
    pub enum Request<'a>;
    /// Liveness probe; empty body both ways.
    Ping = 0x01 => "ping",
    /// Fetch the server roster: `(server_id, addr)` pairs.
    Roster = 0x02 => "roster",
    /// `(table)`: fetch a table's partition map,
    /// `(region_start, region_id, server_id, epoch)` per region.
    PartitionMap(&'a str) = 0x03 => "partition_map",
    /// `(table, row, columns, epoch)`: client put (observers run).
    Put(&'a str, &'a [u8], Cow<'a, [ColumnValue]>, u64) = 0x10 => "put",
    /// `(table, rows)`: batched client put of rows one server owns.
    PutBatch(&'a str, Vec<BatchRow<'a>>) = 0x11 => "put_batch",
    /// `(table, row, columns, epoch)`: put returning replaced values (§5.2
    /// session client).
    PutReturning(&'a str, &'a [u8], Cow<'a, [ColumnValue]>, u64) = 0x12 => "put_returning",
    /// `(table, row, columns, epoch)`: client delete.
    Delete(&'a str, &'a [u8], Cow<'a, [Bytes]>, u64) = 0x13 => "delete",
    /// `(table, row, columns, ts, epoch)`: index-table put at an explicit
    /// timestamp (no observers).
    RawPut(&'a str, &'a [u8], Cow<'a, [ColumnValue]>, u64, u64) = 0x14 => "raw_put",
    /// `(table, row, columns, ts, epoch)`: index-table delete at an explicit
    /// timestamp (no observers).
    RawDelete(&'a str, &'a [u8], Cow<'a, [Bytes]>, u64, u64) = 0x15 => "raw_delete",
    /// `(table, row, column, ts)`: point read of one column.
    Get(&'a str, &'a [u8], &'a [u8], u64) = 0x20 => "get",
    /// `(table, row, column, ts)`: newest cell incl. tombstones,
    /// `(ts, is_tombstone)`.
    GetCellVersioned(&'a str, &'a [u8], &'a [u8], u64) = 0x21 => "get_cell_versioned",
    /// `(table, row, ts)`: all columns of one row.
    GetRow(&'a str, &'a [u8], u64) = 0x22 => "get_row",
    /// `(table, start_row, end_row, ts, limit)`: row scan with row-boundary
    /// semantics.
    ScanRows(&'a str, &'a [u8], Option<&'a [u8]>, u64, usize) = 0x23 => "scan_rows",
    /// `(table, row_prefix, ts, limit)`: row scan by row-key prefix.
    ScanRowsPrefix(&'a str, &'a [u8], u64, usize) = 0x24 => "scan_rows_prefix",
    /// `(table, start_row, end_row, ts, limit)`: row scan under plain byte
    /// order (index range reads).
    ScanRowsRange(&'a str, &'a [u8], Option<&'a [u8]>, u64, usize) = 0x25 => "scan_rows_range",
    /// `(name, num_regions)`: create a pre-split table.
    CreateTable(&'a str, usize) = 0x30 => "create_table",
    /// `(table)`: table existence check.
    HasTable(&'a str) = 0x31 => "has_table",
    /// `(table)`: flush every region of a table.
    FlushTable(&'a str) = 0x32 => "flush_table",
    /// `(spec, num_regions)`: `CREATE INDEX` executed server-side
    /// (observers + backfill).
    CreateIndex(Cow<'a, IndexSpec>, usize) = 0x40 => "create_index",
    /// `(base_table, name)`: `DROP INDEX` executed server-side.
    DropIndex(&'a str, &'a str) = 0x41 => "drop_index",
    /// `(base_table)`: block until the AUQs behind a base table's indexes
    /// are empty.
    Quiesce(&'a str) = 0x42 => "quiesce",
}

/// One decoded frame header + body (shared shape for requests and
/// responses; `tag` is the opcode or the status byte respectively).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Opcode (request) or status (response).
    pub tag: u8,
    /// Client-chosen correlation id, echoed by the server.
    pub request_id: u64,
    /// Op-specific payload.
    pub body: Bytes,
}

/// Serialize a frame. `tag` is the opcode for requests, the status for
/// responses.
pub fn encode_frame(tag: u8, request_id: u64, body: &[u8]) -> Bytes {
    frame(tag, request_id, |w| w.raw(body))
}

/// Write a frame header, let `body` append the body to the same buffer,
/// then fill in the length prefix: a body is never copied a second time.
fn frame(tag: u8, request_id: u64, body: impl FnOnce(&mut BodyWriter) -> &mut BodyWriter) -> Bytes {
    let mut w = BodyWriter { buf: BytesMut::with_capacity(128) };
    w.u32(0).u8(VERSION).u8(tag).u64(request_id);
    body(&mut w);
    let len = (w.buf.len() - 4) as u32;
    w.buf[..4].copy_from_slice(&len.to_le_bytes());
    w.buf.freeze()
}

/// Parse the payload of a frame whose 4-byte length prefix has already been
/// consumed and validated. Rejects unknown versions and short frames.
pub fn decode_frame(payload: &[u8]) -> Result<Frame> {
    if payload.len() < 10 {
        return Err(ClusterError::Protocol(format!("frame too short: {} bytes", payload.len())));
    }
    if payload[0] != VERSION {
        return Err(ClusterError::Protocol(format!(
            "unsupported protocol version {} (speaking {VERSION})",
            payload[0]
        )));
    }
    let tag = payload[1];
    let request_id = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
    Ok(Frame { tag, request_id, body: Bytes::copy_from_slice(&payload[10..]) })
}

/// Validate a frame's length prefix before allocating its buffer.
pub fn check_frame_len(len: u32) -> Result<usize> {
    if len < 10 {
        return Err(ClusterError::Protocol(format!("frame length {len} below header size")));
    }
    if len > MAX_FRAME {
        return Err(ClusterError::Protocol(format!("frame length {len} exceeds {MAX_FRAME}")));
    }
    Ok(len as usize)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// How a request is routed by the client and checked by the server.
#[derive(Debug, PartialEq)]
pub enum Class<'a> {
    /// A row-addressed write carrying epoch stamps: `(table, [(row,
    /// epoch)])`. It goes to the rows' owner, which rejects it unless it
    /// hosts every row and every nonzero stamp is its region's epoch.
    Write(&'a str, Vec<(&'a [u8], u64)>),
    /// A row-addressed read `(table, row)`: it goes to the row's owner,
    /// which rejects it unless it hosts the row.
    Read(&'a str, &'a [u8]),
    /// Any server serves it (metadata, scans, table administration).
    Gateway,
    /// A gateway op that may legitimately run long: index administration
    /// (`CREATE INDEX` backfills, `Quiesce` waits for AUQs to drain).
    Admin,
}

impl<'a> Request<'a> {
    /// The request's routing and checking class.
    pub fn class(&self) -> Class<'a> {
        match *self {
            Request::Put(table, row, _, epoch)
            | Request::PutReturning(table, row, _, epoch)
            | Request::Delete(table, row, _, epoch)
            | Request::RawPut(table, row, _, _, epoch)
            | Request::RawDelete(table, row, _, _, epoch) => {
                Class::Write(table, vec![(row, epoch)])
            }
            Request::PutBatch(table, ref rows) => {
                Class::Write(table, rows.iter().map(|&(row, _, epoch)| (row, epoch)).collect())
            }
            Request::Get(table, row, ..)
            | Request::GetCellVersioned(table, row, ..)
            | Request::GetRow(table, row, _) => Class::Read(table, row),
            Request::Ping
            | Request::Roster
            | Request::PartitionMap(_)
            | Request::ScanRows(..)
            | Request::ScanRowsPrefix(..)
            | Request::ScanRowsRange(..)
            | Request::CreateTable(..)
            | Request::HasTable(_)
            | Request::FlushTable(_) => Class::Gateway,
            Request::CreateIndex(..) | Request::DropIndex(..) | Request::Quiesce(_) => Class::Admin,
        }
    }

    /// Stamp a single-row write with its region's epoch; a no-op for
    /// every other request.
    pub fn stamp(&mut self, epoch: u64) {
        match self {
            Request::Put(.., e)
            | Request::PutReturning(.., e)
            | Request::Delete(.., e)
            | Request::RawPut(.., e)
            | Request::RawDelete(.., e) => *e = epoch,
            _ => {}
        }
    }

    /// Encode as a complete request frame.
    pub fn encode(&self, request_id: u64) -> Bytes {
        frame(self.op() as u8, request_id, |w| match self {
            Request::Ping | Request::Roster => w,
            Request::PartitionMap(t)
            | Request::HasTable(t)
            | Request::FlushTable(t)
            | Request::Quiesce(t) => w.str(t),
            Request::Put(t, row, cols, epoch) | Request::PutReturning(t, row, cols, epoch) => {
                w.str(t).bytes(row).columns(cols).u64(*epoch)
            }
            Request::PutBatch(t, rows) => {
                w.str(t).list(rows, |w, (row, cols, epoch)| w.bytes(row).columns(cols).u64(*epoch))
            }
            Request::Delete(t, row, cols, epoch) => w.str(t).bytes(row).names(cols).u64(*epoch),
            Request::RawPut(t, row, cols, ts, epoch) => {
                w.str(t).bytes(row).columns(cols).u64(*ts).u64(*epoch)
            }
            Request::RawDelete(t, row, cols, ts, epoch) => {
                w.str(t).bytes(row).names(cols).u64(*ts).u64(*epoch)
            }
            Request::Get(t, row, col, ts) | Request::GetCellVersioned(t, row, col, ts) => {
                w.str(t).bytes(row).bytes(col).u64(*ts)
            }
            Request::GetRow(t, row, ts) => w.str(t).bytes(row).u64(*ts),
            Request::ScanRows(t, start, end, ts, limit)
            | Request::ScanRowsRange(t, start, end, ts, limit) => {
                w.str(t).bytes(start).opt(*end, |w, e| w.bytes(e)).u64(*ts).u64(*limit as u64)
            }
            Request::ScanRowsPrefix(t, prefix, ts, limit) => {
                w.str(t).bytes(prefix).u64(*ts).u64(*limit as u64)
            }
            Request::CreateTable(name, regions) => w.str(name).u32(*regions as u32),
            Request::CreateIndex(spec, regions) => {
                let scheme = SCHEMES.iter().position(|s| *s == spec.scheme).expect("listed");
                w.str(&spec.name).str(&spec.base_table).names(&spec.columns);
                w.u8(scheme as u8).u32(*regions as u32)
            }
            Request::DropIndex(base, name) => w.str(base).str(name),
        })
    }

    /// Decode the body of a request frame carrying `op`.
    pub fn decode(op: OpCode, body: &'a [u8]) -> Result<Request<'a>> {
        let mut r = BodyReader::new(body);
        let req = match op {
            OpCode::Ping => Request::Ping,
            OpCode::Roster => Request::Roster,
            OpCode::PartitionMap => Request::PartitionMap(r.str()?),
            OpCode::Put => Request::Put(r.str()?, r.slice()?, r.columns()?.into(), r.u64()?),
            OpCode::PutBatch => Request::PutBatch(
                r.str()?,
                r.list(|r| Ok((r.slice()?, r.columns()?.into(), r.u64()?)))?,
            ),
            OpCode::PutReturning => {
                Request::PutReturning(r.str()?, r.slice()?, r.columns()?.into(), r.u64()?)
            }
            OpCode::Delete => Request::Delete(r.str()?, r.slice()?, r.names()?.into(), r.u64()?),
            OpCode::RawPut => {
                Request::RawPut(r.str()?, r.slice()?, r.columns()?.into(), r.u64()?, r.u64()?)
            }
            OpCode::RawDelete => {
                Request::RawDelete(r.str()?, r.slice()?, r.names()?.into(), r.u64()?, r.u64()?)
            }
            OpCode::Get => Request::Get(r.str()?, r.slice()?, r.slice()?, r.u64()?),
            OpCode::GetCellVersioned => {
                Request::GetCellVersioned(r.str()?, r.slice()?, r.slice()?, r.u64()?)
            }
            OpCode::GetRow => Request::GetRow(r.str()?, r.slice()?, r.u64()?),
            OpCode::ScanRows => Request::ScanRows(
                r.str()?,
                r.slice()?,
                r.opt(BodyReader::slice)?,
                r.u64()?,
                r.u64()? as usize,
            ),
            OpCode::ScanRowsPrefix => {
                Request::ScanRowsPrefix(r.str()?, r.slice()?, r.u64()?, r.u64()? as usize)
            }
            OpCode::ScanRowsRange => Request::ScanRowsRange(
                r.str()?,
                r.slice()?,
                r.opt(BodyReader::slice)?,
                r.u64()?,
                r.u64()? as usize,
            ),
            OpCode::CreateTable => Request::CreateTable(r.str()?, r.u32()? as usize),
            OpCode::HasTable => Request::HasTable(r.str()?),
            OpCode::FlushTable => Request::FlushTable(r.str()?),
            OpCode::CreateIndex => {
                let name = r.str()?.to_string();
                let base_table = r.str()?.to_string();
                let columns = r.names()?;
                let scheme = r.u8()?;
                let scheme = *SCHEMES.get(scheme as usize).ok_or_else(|| {
                    ClusterError::Protocol(format!("unknown index scheme {scheme}"))
                })?;
                let spec = IndexSpec { name, base_table, columns, scheme };
                Request::CreateIndex(Cow::Owned(spec), r.u32()? as usize)
            }
            OpCode::DropIndex => Request::DropIndex(r.str()?, r.str()?),
            OpCode::Quiesce => Request::Quiesce(r.str()?),
        };
        r.expect_end()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A success response, one variant per result shape. Which shape answers
/// which opcode is fixed by [`Response::decode`].
#[derive(Debug, Clone)]
pub enum Response {
    /// No result.
    Unit,
    /// `(server id, address)` pairs.
    Roster(Vec<(ServerId, String)>),
    /// `(region start, region id, owner, epoch)` per region.
    PartitionMap(Vec<(Bytes, RegionId, ServerId, u64)>),
    /// The timestamp a put or delete was applied at.
    Ts(u64),
    /// A batch's per-row timestamps, in request order.
    Stamps(Vec<u64>),
    /// A put's timestamp and the values it replaced.
    Outcome(PutOutcome),
    /// A point read's newest visible value.
    Value(Option<VersionedValue>),
    /// A cell's newest `(ts, is_tombstone)`.
    Cell(Option<(u64, bool)>),
    /// One row's `(column, value)` pairs.
    Row(Vec<(Bytes, VersionedValue)>),
    /// A scan's rows.
    Rows(Vec<RowGroup>),
    /// A yes/no answer.
    Bool(bool),
}

impl Response {
    /// Encode as a complete `STATUS_OK` response frame.
    pub fn encode(&self, request_id: u64) -> Bytes {
        frame(STATUS_OK, request_id, |w| match self {
            Response::Unit => w,
            Response::Roster(entries) => w.list(entries, |w, (id, addr)| w.u32(*id).str(addr)),
            Response::PartitionMap(map) => w.list(map, |w, (start, region, server, epoch)| {
                w.bytes(start).u32(*region).u32(*server).u64(*epoch)
            }),
            Response::Ts(ts) => w.u64(*ts),
            Response::Stamps(stamps) => w.list(stamps, |w, ts| w.u64(*ts)),
            Response::Outcome(o) => w.u64(o.ts).list(&o.old_values, |w, (c, old)| {
                w.bytes(c).opt(old.as_ref(), BodyWriter::versioned)
            }),
            Response::Value(v) => w.opt(v.as_ref(), BodyWriter::versioned),
            Response::Cell(cell) => w.opt(*cell, |w, (ts, tomb)| w.u64(ts).u8(tomb as u8)),
            Response::Row(cols) => w.list(cols, |w, (c, v)| w.bytes(c).versioned(v)),
            Response::Rows(rows) => w.list(rows, |w, (row, cols)| {
                w.bytes(row).list(cols, |w, (c, v)| w.bytes(c).versioned(v))
            }),
            Response::Bool(b) => w.u8(*b as u8),
        })
    }

    /// Decode the body of a `STATUS_OK` response to a request carrying `op`.
    pub fn decode(op: OpCode, body: &[u8]) -> Result<Response> {
        let mut r = BodyReader::new(body);
        let resp = match op {
            OpCode::Ping
            | OpCode::RawPut
            | OpCode::RawDelete
            | OpCode::CreateTable
            | OpCode::FlushTable
            | OpCode::CreateIndex
            | OpCode::DropIndex
            | OpCode::Quiesce => Response::Unit,
            OpCode::Roster => Response::Roster(r.list(|r| Ok((r.u32()?, r.str()?.to_string())))?),
            OpCode::PartitionMap => {
                Response::PartitionMap(r.list(|r| Ok((r.bytes()?, r.u32()?, r.u32()?, r.u64()?)))?)
            }
            OpCode::Put | OpCode::Delete => Response::Ts(r.u64()?),
            OpCode::PutBatch => Response::Stamps(r.list(BodyReader::u64)?),
            OpCode::PutReturning => Response::Outcome(PutOutcome {
                ts: r.u64()?,
                old_values: r.list(|r| Ok((r.bytes()?, r.opt(BodyReader::versioned)?)))?,
            }),
            OpCode::Get => Response::Value(r.opt(BodyReader::versioned)?),
            OpCode::GetCellVersioned => Response::Cell(r.opt(|r| Ok((r.u64()?, r.u8()? != 0)))?),
            OpCode::GetRow => Response::Row(r.list(|r| Ok((r.bytes()?, r.versioned()?)))?),
            OpCode::ScanRows | OpCode::ScanRowsPrefix | OpCode::ScanRowsRange => Response::Rows(
                r.list(|r| Ok((r.bytes()?, r.list(|r| Ok((r.bytes()?, r.versioned()?)))?)))?,
            ),
            OpCode::HasTable => Response::Bool(r.u8()? != 0),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Error body codec
// ---------------------------------------------------------------------------

/// Encode a [`ClusterError`] as an error-response body: `[u8 code]` +
/// code-specific payload. `Storage` flattens to `Unavailable` — the engine's
/// error detail is a server-side concern; the client only needs to know the
/// request failed non-retryably with a message.
pub fn encode_error(e: &ClusterError) -> Bytes {
    let mut w = BodyWriter { buf: BytesMut::new() };
    match e {
        ClusterError::NoSuchTable(t) => w.u8(1).str(t),
        ClusterError::ServerDown(s) => w.u8(2).u32(*s),
        ClusterError::NotServing { owner } => w.u8(3).u32(*owner),
        ClusterError::Timeout(m) => w.u8(4).str(m),
        ClusterError::Io(m) => w.u8(5).str(m),
        ClusterError::Protocol(m) => w.u8(6).str(m),
        ClusterError::Unavailable(m) => w.u8(7).str(m),
        ClusterError::Storage(e) => w.u8(7).str(&format!("storage: {e}")),
        ClusterError::StaleEpoch { owner, epoch } => w.u8(8).u32(*owner).u64(*epoch),
    };
    w.buf.freeze()
}

/// Decode an error-response body back into a [`ClusterError`].
pub fn decode_error(body: &[u8]) -> ClusterError {
    fn inner(body: &[u8]) -> Result<ClusterError> {
        let mut r = BodyReader::new(body);
        let e = match r.u8()? {
            1 => ClusterError::NoSuchTable(r.str()?.into()),
            2 => ClusterError::ServerDown(r.u32()?),
            3 => ClusterError::NotServing { owner: r.u32()? },
            4 => ClusterError::Timeout(r.str()?.into()),
            5 => ClusterError::Io(r.str()?.into()),
            6 => ClusterError::Protocol(r.str()?.into()),
            7 => ClusterError::Unavailable(r.str()?.into()),
            8 => ClusterError::StaleEpoch { owner: r.u32()?, epoch: r.u64()? },
            c => return Err(ClusterError::Protocol(format!("unknown error code {c}"))),
        };
        r.expect_end()?;
        Ok(e)
    }
    inner(body).unwrap_or_else(|e| e)
}

// ---------------------------------------------------------------------------
// Body writer/reader primitives
// ---------------------------------------------------------------------------

/// Appends body primitives to a frame buffer.
struct BodyWriter {
    buf: BytesMut,
}

impl BodyWriter {
    fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_slice(&v.to_le_bytes());
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_slice(&v.to_le_bytes());
        self
    }

    fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_slice(v);
        self
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32).raw(v)
    }

    fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// A `u8` tag, then the value when present.
    fn opt<T>(&mut self, v: Option<T>, item: impl FnOnce(&mut Self, T) -> &mut Self) -> &mut Self {
        match v {
            None => self.u8(0),
            Some(v) => item(self.u8(1), v),
        }
    }

    /// A `u32` count, then each item.
    fn list<T>(
        &mut self,
        items: &[T],
        mut item: impl for<'w> FnMut(&'w mut Self, &T) -> &'w mut Self,
    ) -> &mut Self {
        self.u32(items.len() as u32);
        for v in items {
            item(self, v);
        }
        self
    }

    fn columns(&mut self, cols: &[ColumnValue]) -> &mut Self {
        self.list(cols, |w, (c, v)| w.bytes(c).bytes(v))
    }

    fn names(&mut self, cols: &[Bytes]) -> &mut Self {
        self.list(cols, |w, c| w.bytes(c))
    }

    fn versioned(&mut self, v: &VersionedValue) -> &mut Self {
        self.u64(v.ts).bytes(&v.value)
    }
}

/// Cursor-style body decoder; every read is bounds-checked and malformed
/// input surfaces as [`ClusterError::Protocol`].
struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ClusterError::Protocol("truncated body".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The body must be fully consumed; trailing garbage is an error.
    fn expect_end(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(ClusterError::Protocol(format!(
                "{} trailing bytes after body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length-prefixed byte string, borrowed from the body.
    fn slice(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME as usize {
            return Err(ClusterError::Protocol(format!("byte string length {len} too large")));
        }
        self.take(len)
    }

    /// A length-prefixed byte string, copied out of the body.
    fn bytes(&mut self) -> Result<Bytes> {
        self.slice().map(Bytes::copy_from_slice)
    }

    fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.slice()?)
            .map_err(|_| ClusterError::Protocol("invalid UTF-8 string".into()))
    }

    fn opt<T>(&mut self, item: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => item(self).map(Some),
            t => Err(ClusterError::Protocol(format!("bad option tag {t}"))),
        }
    }

    /// A `u32` count, then each item.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        // Each item needs at least one byte of encoding; a count larger than
        // the remaining body is malformed and must not drive an allocation.
        if n > self.buf.len() - self.pos {
            return Err(ClusterError::Protocol(format!("list count {n} exceeds body")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn columns(&mut self) -> Result<Vec<ColumnValue>> {
        self.list(|r| Ok((r.bytes()?, r.bytes()?)))
    }

    fn names(&mut self) -> Result<Vec<Bytes>> {
        self.list(BodyReader::bytes)
    }

    fn versioned(&mut self) -> Result<VersionedValue> {
        Ok(VersionedValue { ts: self.u64()?, value: self.bytes()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writer() -> BodyWriter {
        BodyWriter { buf: BytesMut::new() }
    }

    /// A frame's body, after checking its header.
    fn body_of(frame: &Bytes, tag: u8, request_id: u64) -> Bytes {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
        assert_eq!(check_frame_len(len).unwrap(), frame.len() - 4);
        let f = decode_frame(&frame[4..]).unwrap();
        assert_eq!((f.tag, f.request_id), (tag, request_id));
        f.body
    }

    fn cols(pairs: &[(&str, &str)]) -> Vec<ColumnValue> {
        pairs
            .iter()
            .map(|(c, v)| (Bytes::from(c.to_string()), Bytes::from(v.to_string())))
            .collect()
    }

    fn spec(scheme: IndexScheme) -> IndexSpec {
        IndexSpec {
            name: "by_x".into(),
            base_table: "t".into(),
            columns: vec![Bytes::from("x"), Bytes::from("y")],
            scheme,
        }
    }

    fn vv(value: &'static str, ts: u64) -> VersionedValue {
        VersionedValue { value: Bytes::from(value), ts }
    }

    /// Requests of every opcode, exercising every field and index scheme.
    fn sample_requests() -> Vec<Request<'static>> {
        let c: Cow<'static, [ColumnValue]> = cols(&[("c", "v1"), ("d", "")]).into();
        let names: Cow<'static, [Bytes]> = vec![Bytes::from("c")].into();
        vec![
            Request::Ping,
            Request::Roster,
            Request::PartitionMap("t"),
            Request::Put("t", b"r\x00k", c.clone(), 7),
            Request::PutBatch("t", vec![(&b"a"[..], c.clone(), 1), (&b"b"[..], vec![].into(), 0)]),
            Request::PutReturning("t", b"r", c.clone(), 3),
            Request::Delete("t", b"r", names.clone(), 4),
            Request::RawPut("i", b"v\x00r", c, 99, 5),
            Request::RawDelete("i", b"v\x00r", names, 99, 0),
            Request::Get("t", b"r", b"c", u64::MAX),
            Request::GetCellVersioned("t", b"r", b"c", 42),
            Request::GetRow("t", b"r", 42),
            Request::ScanRows("t", b"a", Some(&b"z"[..]), 42, 10),
            Request::ScanRowsPrefix("t", b"pre", 42, 1 << 40),
            Request::ScanRowsRange("t", b"", None, 42, 0),
            Request::CreateTable("t", 6),
            Request::HasTable("t"),
            Request::FlushTable("t"),
            Request::DropIndex("t", "by_x"),
            Request::Quiesce("t"),
        ]
        .into_iter()
        .chain(SCHEMES.map(|scheme| Request::CreateIndex(Cow::Owned(spec(scheme)), 4)))
        .collect()
    }

    /// One response per result shape, with the opcode that answers with it.
    fn sample_responses() -> Vec<(OpCode, Response)> {
        let row = vec![(Bytes::from("c"), vv("v", 3)), (Bytes::from("d"), vv("", 4))];
        vec![
            (OpCode::Quiesce, Response::Unit),
            (OpCode::Roster, Response::Roster(vec![(0, "127.0.0.1:1".into()), (2, "h:2".into())])),
            (OpCode::PartitionMap, Response::PartitionMap(vec![(Bytes::new(), 0, 1, 5)])),
            (OpCode::Put, Response::Ts(11)),
            (OpCode::PutBatch, Response::Stamps(vec![12, 13])),
            (
                OpCode::PutReturning,
                Response::Outcome(PutOutcome {
                    ts: 99,
                    old_values: vec![
                        (Bytes::from("a"), None),
                        (Bytes::from("b"), Some(vv("old", 42))),
                    ],
                }),
            ),
            (OpCode::Get, Response::Value(Some(vv("v", 9)))),
            (OpCode::Get, Response::Value(None)),
            (OpCode::GetCellVersioned, Response::Cell(Some((8, true)))),
            (OpCode::GetCellVersioned, Response::Cell(None)),
            (OpCode::GetRow, Response::Row(row.clone())),
            (
                OpCode::ScanRows,
                Response::Rows(vec![(Bytes::from("r1"), row), (Bytes::from("r2"), vec![])]),
            ),
            (OpCode::HasTable, Response::Bool(true)),
        ]
    }

    #[test]
    fn frame_roundtrip() {
        let f = encode_frame(OpCode::Put as u8, 42, b"body");
        assert_eq!(&body_of(&f, OpCode::Put as u8, 42)[..], b"body");
    }

    #[test]
    fn frame_rejects_bad_version_and_short_frames() {
        let mut f = encode_frame(0x10, 1, b"").to_vec();
        f[4] = 9; // version byte
        assert!(matches!(decode_frame(&f[4..]), Err(ClusterError::Protocol(_))));
        assert!(matches!(decode_frame(&[1, 2, 3]), Err(ClusterError::Protocol(_))));
        assert!(check_frame_len(3).is_err());
        assert!(check_frame_len(MAX_FRAME + 1).is_err());
    }

    #[test]
    fn body_primitives_roundtrip() {
        let mut w = writer();
        w.u8(7).u32(1234).u64(u64::MAX).bytes(b"abc").str("täble");
        w.opt(None, |w, b: &[u8]| w.bytes(b)).opt(Some(&b"x\x00y"[..]), |w, b| w.bytes(b));
        let b = w.buf.freeze();
        let mut r = BodyReader::new(&b);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(&r.bytes().unwrap()[..], b"abc");
        assert_eq!(r.str().unwrap(), "täble");
        assert_eq!(r.opt(BodyReader::slice).unwrap(), None);
        assert_eq!(r.opt(BodyReader::slice).unwrap(), Some(&b"x\x00y"[..]));
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let mut w = writer();
        w.bytes(b"hello");
        let b = w.buf.freeze();
        // Truncate mid-string:
        let mut r = BodyReader::new(&b[..6]);
        assert!(r.bytes().is_err());
        // Trailing garbage:
        let mut long = b.to_vec();
        long.push(0xAA);
        let mut r = BodyReader::new(&long);
        r.bytes().unwrap();
        assert!(r.expect_end().is_err());
        // Absurd list count must not allocate:
        let b = u32::MAX.to_le_bytes();
        assert!(BodyReader::new(&b).list(BodyReader::u8).is_err());
    }

    #[test]
    fn error_codec_roundtrips_every_variant() {
        let errors = [
            ClusterError::NoSuchTable("t".into()),
            ClusterError::ServerDown(3),
            ClusterError::NotServing { owner: 7 },
            ClusterError::Timeout("slow".into()),
            ClusterError::Io("reset".into()),
            ClusterError::Protocol("bad".into()),
            ClusterError::Unavailable("u".into()),
            ClusterError::StaleEpoch { owner: 2, epoch: 9 },
        ];
        for e in errors {
            let decoded = decode_error(&encode_error(&e));
            assert_eq!(decoded.to_string(), e.to_string());
            assert_eq!(decoded.is_retryable(), e.is_retryable());
        }
        // Storage flattens to Unavailable (non-retryable), not a panic:
        let s = ClusterError::Storage(diff_index_lsm::LsmError::Corruption("c".into()));
        let d = decode_error(&encode_error(&s));
        assert!(matches!(d, ClusterError::Unavailable(_)));
        assert!(!d.is_retryable());
    }

    #[test]
    fn every_request_and_response_roundtrips() {
        let requests = sample_requests();
        for op in OpCode::all() {
            assert!(requests.iter().any(|r| r.op() == *op), "no {} sample", op.name());
        }
        for (id, req) in requests.iter().enumerate() {
            let body = body_of(&req.encode(id as u64), req.op() as u8, id as u64);
            assert_eq!(&Request::decode(req.op(), &body).unwrap(), req);
        }
        for (id, (op, resp)) in sample_responses().into_iter().enumerate() {
            let body = body_of(&resp.encode(id as u64), STATUS_OK, id as u64);
            let decoded = Response::decode(op, &body).unwrap();
            assert_eq!(format!("{decoded:?}"), format!("{resp:?}"), "{}", op.name());
        }
    }

    #[test]
    fn put_outcome_roundtrip() {
        let o = PutOutcome {
            ts: 99,
            old_values: vec![(Bytes::from("a"), None), (Bytes::from("b"), Some(vv("old", 42)))],
        };
        let body = body_of(&Response::Outcome(o).encode(1), STATUS_OK, 1);
        let Response::Outcome(d) = Response::decode(OpCode::PutReturning, &body).unwrap() else {
            panic!("PutReturning must decode to an Outcome");
        };
        assert_eq!(d.ts, 99);
        assert_eq!(d.old_values.len(), 2);
        assert_eq!(d.old_values[0], (Bytes::from("a"), None));
        assert_eq!(d.old_values[1].1.as_ref().unwrap().ts, 42);
    }

    #[test]
    fn index_spec_roundtrip() {
        for scheme in SCHEMES {
            let req = Request::CreateIndex(Cow::Owned(spec(scheme)), 4);
            let body = body_of(&req.encode(1), OpCode::CreateIndex as u8, 1);
            let Request::CreateIndex(d, 4) = Request::decode(OpCode::CreateIndex, &body).unwrap()
            else {
                panic!("CreateIndex must decode to itself");
            };
            assert_eq!(d.name, "by_x");
            assert_eq!(d.base_table, "t");
            assert_eq!(d.columns, vec![Bytes::from("x"), Bytes::from("y")]);
            assert_eq!(d.scheme, scheme);
        }
    }

    #[test]
    fn every_decoder_rejects_a_trailing_byte() {
        let trailing = |body: Bytes| [&body[..], &[0u8][..]].concat();
        for req in sample_requests() {
            let body = trailing(body_of(&req.encode(0), req.op() as u8, 0));
            assert!(Request::decode(req.op(), &body).is_err(), "{} request", req.op().name());
        }
        for (op, resp) in sample_responses() {
            let body = trailing(body_of(&resp.encode(0), STATUS_OK, 0));
            assert!(Response::decode(op, &body).is_err(), "{} response", op.name());
        }
        let body = trailing(encode_error(&ClusterError::ServerDown(1)));
        assert!(matches!(decode_error(&body), ClusterError::Protocol(_)));
    }

    /// These frames were captured off the socket from the client before the
    /// codec existed (request ids 3..=6 follow its Roster and PartitionMap
    /// bootstrap; the partition map stamped epoch 7). The codec must keep
    /// producing them byte for byte.
    #[test]
    fn frames_match_the_recorded_client_bytes() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let c: Cow<[ColumnValue]> = cols(&[("c", "v1"), ("d", "")]).into();
        let batch = vec![(&b"a"[..], c.clone(), 7), (&b"b"[..], cols(&[("x", "y")]).into(), 7)];
        let cases = [
            (
                Request::Put("t", b"r\x00k", c, 7).encode(3),
                "360000000110030000000000000001000000740300000072006b02000000010000006302\
                 00000076310100000064000000000700000000000000",
            ),
            (
                Request::PutBatch("t", batch).encode(4),
                "530000000111040000000000000001000000740200000001000000610200000001000000\
                 63020000007631010000006400000000070000000000000001000000620100000001000000\
                 7801000000790700000000000000",
            ),
            (
                Request::Get("t", b"r\x00k", b"c", 42).encode(5),
                "230000000120050000000000000001000000740300000072006b01000000632a00000000000000",
            ),
            (
                Request::ScanRowsPrefix("t", b"pre", 99, 10).encode(6),
                "260000000124060000000000000001000000740300000070726563000000000000000a00000000000000",
            ),
        ];
        for (frame, want) in cases {
            assert_eq!(hex(&frame), want);
        }
    }

    #[test]
    fn classes_cover_routing_and_checking() {
        let c = cols(&[("c", "v")]);
        let rows =
            vec![(&b"a"[..], Cow::Borrowed(&c[..]), 1), (&b"b"[..], Cow::Borrowed(&c[..]), 2)];
        let batch = Request::PutBatch("t", rows);
        assert_eq!(batch.class(), Class::Write("t", vec![(&b"a"[..], 1), (&b"b"[..], 2)]));
        let mut put = Request::Delete("t", b"r", Cow::Owned(vec![]), 0);
        put.stamp(9);
        assert_eq!(put.class(), Class::Write("t", vec![(&b"r"[..], 9)]));
        let mut get = Request::GetRow("t", b"r", 5);
        get.stamp(9);
        assert_eq!(get, Request::GetRow("t", b"r", 5), "reads carry no stamp");
        assert_eq!(get.class(), Class::Read("t", b"r"));
        assert_eq!(Request::ScanRowsPrefix("t", b"", 1, 1).class(), Class::Gateway);
        assert_eq!(Request::Quiesce("t").class(), Class::Admin);
    }

    #[test]
    fn opcode_byte_roundtrip_and_names_unique() {
        let mut names = std::collections::HashSet::new();
        for &op in OpCode::all() {
            assert_eq!(OpCode::from_u8(op as u8), Some(op));
            assert!(names.insert(op.name()), "duplicate opcode name {}", op.name());
        }
        assert_eq!(OpCode::from_u8(0xEE), None);
    }
}
