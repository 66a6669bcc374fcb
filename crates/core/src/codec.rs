//! The codec-agnostic wire boundary: how [`crate::store::StoredPlan`]
//! blobs are rendered to bytes before they enter the
//! [`crate::store::InstructionStore`] and how executors rebuild them.
//!
//! Three codecs share one contract — deterministic, float-exact, and
//! re-encode bit-identical (`encode(decode(encode(p))) == encode(p)`):
//!
//! * [`PlanCodec::Json`] — self-describing text over the serde shim's
//!   JSON layer. Debuggable (a blob is a readable document) but verbose:
//!   every object repeats its field names and every `f64` costs up to 17
//!   digits of shortest-roundtrip text.
//! * [`PlanCodec::Binary`] — the length-prefixed binary encoding of the
//!   same self-describing [`Value`] data model, written node by node as
//!   the `Serialize` walk emits it. Every string and array is
//!   length-prefixed (no delimiters, no escaping), integers are LEB128
//!   varints (signed values zigzag-encoded), and `f64`s are their raw
//!   little-endian bit patterns — exact by construction, including
//!   non-finite values that JSON must detour through tagged strings.
//!   Strings are **interned**: the first occurrence is written inline and
//!   assigned the next table index, later occurrences are a one-tag
//!   varint back-reference. Plan blobs are dominated by repeated object
//!   keys and enum tags (`"duration"`, `"Compute"`, …), which is exactly
//!   what the table collapses. Decoding never touches the JSON parser.
//! * [`PlanCodec::Flat`] — the default: a fixed-width little-endian
//!   **arena** in which the wire format *is* the program. Decoding is
//!   validating the header, the summary and the offset tables once and
//!   wrapping the `Arc<[u8]>` in typed accessor structs ([`FlatPlanRef`],
//!   [`FlatReplicaRef`]) that read fields by offset. No tree build, no
//!   owned copy, and no `unsafe` — every read is an explicit
//!   bounds-checked `from_le_bytes`, the same discipline as the Binary
//!   codec's raw-bits `f64` handling. The simulator executes straight
//!   over the blob through `dynapipe_sim::InstructionSource`.
//!
//! # What "decode" means
//!
//! The executor needs the programs plus an
//! [`IterationSummary`] of the plan (what `execute_summarized` and
//! `record_iteration` read), never the plan tree. Its decode,
//! `runtime::decode_executable`, is per codec:
//!
//! * Json / Binary: parse the whole blob into an owned
//!   [`crate::store::StoredPlan`], then derive the summary from the plan;
//! * Flat: [`FlatPlanRef::new`] (validation), [`FlatPlanRef::summary`]
//!   (a fixed-width read) and one [`FlatReplicaRef`] per replica. The
//!   plan section is not read.
//!
//! `runtime::decode_for_execution` is that decode plus the plan itself
//! (on flat, [`FlatPlanRef::plan`] rebuilds it from the plan section),
//! for callers that inspect plans.
//!
//! # Flat layout (version 2)
//!
//! All integers are **little-endian** and fixed width; offsets are
//! absolute byte positions in the blob, `u32` (a blob is < 4 GiB by
//! construction — one iteration's programs). No padding, no alignment:
//! records are packed, which is safe because every access is an explicit
//! byte read, never a pointer cast.
//!
//! ```text
//! header (35 bytes):
//!   0      magic      u8   = 0xF7 (outside ASCII and ≠ Binary's 0xB1)
//!   1      version    u8   = 2
//!   2      outcome    u8   0 = Failed, 1 = Plan
//!   3..11  total_len  u64  must equal the blob length (truncation check)
//!   11..19 iteration  u64
//!   19..23 plan_off   u32  ┐ the IterationPlan (outcome = 1) or the
//!   23..27 plan_len   u32  ┘ PlanError (outcome = 0) section
//!   27..31 replicas   u32  number of data-parallel replicas
//!   31..35 dir_off    u32  program directory
//!
//! summary (outcome = 1 only, at byte 35; 93 + 8 × stages bytes):
//!   0      recompute          u8   index in RecomputeMode::ALL
//!   1..9   est_iteration_time u64  ┐
//!   9..17  dp_sync_time       u64  │ f64 bits
//!   17..25 planning_time_us   u64  ┘
//!   25..33 num_micro_batches  u64
//!   33..41 actual_tokens      u64
//!   41..89 padding            6 × u64  actual, padded, enc_actual,
//!                                      enc_padded, dec_actual, dec_padded
//!   89..93 stages             u32
//!   93..   est_peak_memory    stages × u64  per-stage max over replicas
//!
//! plan section (at plan_off = the end of the summary, or 35 for a
//!   failed outcome): the plan/error subtree in the Binary codec's
//!   layout. Only inspectors, tests and re-encodes read it; the executor
//!   reads the summary instead.
//!
//! directory (at dir_off):
//!   replicas × u32           per-replica device counts
//!   Σdevices × (u32, u32)    per-program (ops_off, ops_count),
//!                            replica-major
//!
//! instruction records (34 bytes each, at each program's ops_off):
//!   0      kind        u8   0 = Compute, 1 = CommStart, 2 = CommWait
//!   1      flags       u8   bit0 = is_backward, bit1 = dir == Recv
//!   2..6   micro_batch u32  ┐ the op label
//!   6..10  stage       u32  ┘
//!   10..18 a           u64  ┐ Compute:   a = duration f64 bits,
//!   18..26 b           u64  │            b = allocs_off | count << 32,
//!   26..34 c           u64  ┘            c = frees_off  | count << 32
//!                           CommStart: a = peer, b = bytes, c = tag
//!                           CommWait:  a = tag, b = c = 0
//!
//! side tables (after the last record):
//!   allocs: 16-byte (id u64, bytes u64) pairs
//!   frees:   8-byte id u64s
//! ```
//!
//! **Versioning:** any incompatible change bumps the version byte and
//! decoders reject other versions — same rule as Binary (version 2 added
//! the summary section). The `total_len` field plus full summary and
//! offset-table validation in [`FlatPlanRef::new`] means a truncated or
//! bit-flipped blob yields a typed [`CodecError`], never a panic or
//! out-of-bounds read; accessors on a successfully validated blob are
//! in-bounds by construction.
//!
//! The tree codecs encode by streaming: a value's `Serialize` walk calls
//! the codec's [`serde::Writer`] once per node of the [`Value`] data
//! model (the Binary encoder here, the shim's JSON renderer for JSON), and
//! no `Value` tree is built. So *what* is encoded is decided once by the
//! `Serialize` impls, and the codec only decides *how bytes are laid
//! out*; a typed value and its `to_value()` tree encode to the same bytes.
//! Decoding goes the other way through the tree. Flat encodes
//! [`crate::store::StoredPlan`] structurally instead (handled by
//! `StoredPlan::encode`/`decode`); its plan section is the Binary
//! encoder's stream of the plan. The property suite in
//! `tests/serialization.rs` pins all three codecs (cross-decode equal,
//! re-encode bitwise, engine runs over decoded — or wrapped — programs
//! bit-identical; the flat summary equals the one derived from the plan;
//! the executor decode reads no byte of the plan section; the blobs of
//! fixed plans hash to pinned constants), and the `fig09_cluster` bench,
//! summing blob bytes over its datacenter sweep, fails CI if Binary stops
//! beating JSON on bytes by half or Flat's arena bloats past 1.25×
//! Binary's.

use crate::driver::IterationSummary;
use crate::planner::{IterationPlan, PlanError};
use crate::store::{StoredLowered, StoredOutcome, StoredPlan};
use dynapipe_batcher::PaddingStats;
use dynapipe_model::RecomputeMode;
use dynapipe_sim::{
    AllocsRef, CommDir, DeviceProgram, FreesRef, InstructionSource, OpLabel, OpView, SimOp,
};
use serde::{Error, Serialize, Value, Writer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which wire encoding a [`crate::store::StoredPlan`] blob uses. The
/// default is [`PlanCodec::Flat`], the only codec whose executor decode
/// reads neither the plan tree nor an owned copy of the programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanCodec {
    /// Self-describing JSON text (UTF-8 bytes); the human-readable
    /// reference.
    Json,
    /// Length-prefixed binary with string interning; see module docs.
    Binary,
    /// Fixed-width LE arena executed in place by typed accessors; see
    /// module docs. Encodes [`crate::store::StoredPlan`] structurally
    /// rather than as a [`Value`] data model. The default.
    #[default]
    Flat,
}

impl PlanCodec {
    /// Every codec, for A/B sweeps.
    pub const ALL: [PlanCodec; 3] = [PlanCodec::Json, PlanCodec::Binary, PlanCodec::Flat];

    /// Short label for reports and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            PlanCodec::Json => "json",
            PlanCodec::Binary => "binary",
            PlanCodec::Flat => "flat",
        }
    }

    /// Render a serializable value to wire bytes in a tree codec, by
    /// streaming its `Serialize` walk into the codec's writer (no
    /// [`Value`] tree is built). Deterministic: the bytes are a pure
    /// function of the walk, so a typed value and its `to_value()` tree
    /// encode identically. Tree codecs only — [`PlanCodec::Flat`] lays
    /// out `StoredPlan` structurally; `StoredPlan::encode` dispatches
    /// before this.
    pub fn encode<T: Serialize + ?Sized>(&self, v: &T) -> Vec<u8> {
        match self {
            PlanCodec::Json => serde::value::render_json(v, None).into_bytes(),
            PlanCodec::Binary => {
                let mut enc = BinaryEncoder::new();
                v.serialize(&mut enc);
                enc.out
            }
            PlanCodec::Flat => unreachable!(
                "PlanCodec::Flat has no Value-tree layout; StoredPlan::encode handles it"
            ),
        }
    }

    /// Rebuild a [`Value`] tree from wire bytes produced by
    /// [`PlanCodec::encode`] with the *same* codec. A blob from
    /// another codec fails loudly (each codec's magic byte is invalid as
    /// a first byte of the others, and JSON text never starts with
    /// either magic), never silently misparses.
    pub fn decode_value(&self, blob: &[u8]) -> Result<Value, Error> {
        match self {
            PlanCodec::Json => {
                let text = std::str::from_utf8(blob)
                    .map_err(|e| Error::msg(format!("blob is not UTF-8 JSON: {e}")))?;
                serde::value::parse_json(text)
            }
            PlanCodec::Binary => BinaryDecoder::new(blob)?.finish(),
            PlanCodec::Flat => Err(Error::msg(
                "flat blobs are structured, not Value trees; decode via StoredPlan::decode",
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary layout
// ---------------------------------------------------------------------------
//
// blob := MAGIC VERSION value
// value := T_NULL | T_FALSE | T_TRUE
//        | T_U64 varint | T_I64 varint(zigzag) | T_F64 u64le(bits)
//        | T_STR varint(len) utf8-bytes       (appends to string table)
//        | T_STR_REF varint(index)            (back-reference)
//        | T_ARRAY varint(count) value*
//        | T_OBJECT varint(count) (string value)*
//
// `string` in an object entry is a T_STR/T_STR_REF node (keys intern
// through the same table as string values).

/// First blob byte; deliberately outside ASCII so a binary blob can never
/// be confused with JSON text (which starts with `{`, `[`, a digit, …).
const MAGIC: u8 = 0xB1;
/// Layout version, bumped on any incompatible change.
const VERSION: u8 = 1;

const T_NULL: u8 = 0;
const T_FALSE: u8 = 1;
const T_TRUE: u8 = 2;
const T_U64: u8 = 3;
const T_I64: u8 = 4;
const T_F64: u8 = 5;
const T_STR: u8 = 6;
const T_STR_REF: u8 = 7;
const T_ARRAY: u8 = 8;
const T_OBJECT: u8 = 9;

struct BinaryEncoder {
    out: Vec<u8>,
    interned: BTreeMap<String, u64>,
}

impl BinaryEncoder {
    fn new() -> Self {
        let mut out = Vec::with_capacity(256);
        out.push(MAGIC);
        out.push(VERSION);
        BinaryEncoder {
            out,
            interned: BTreeMap::new(),
        }
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                return;
            }
            self.out.push(byte | 0x80);
        }
    }

    fn string(&mut self, s: &str) {
        if let Some(&id) = self.interned.get(s) {
            self.out.push(T_STR_REF);
            self.varint(id);
        } else {
            let id = self.interned.len() as u64;
            self.interned.insert(s.to_string(), id);
            self.out.push(T_STR);
            self.varint(s.len() as u64);
            self.out.extend_from_slice(s.as_bytes());
        }
    }
}

/// The encoder is the sink of a `Serialize` walk: each writer call is one
/// node of the layout above, so a typed value and its [`Value`] tree
/// encode to the same bytes.
impl Writer for BinaryEncoder {
    fn null(&mut self) {
        self.out.push(T_NULL);
    }

    fn bool(&mut self, b: bool) {
        self.out.push(if b { T_TRUE } else { T_FALSE });
    }

    fn u64(&mut self, u: u64) {
        self.out.push(T_U64);
        self.varint(u);
    }

    fn i64(&mut self, i: i64) {
        // Zigzag: small magnitudes of either sign stay short.
        self.out.push(T_I64);
        self.varint(((i << 1) ^ (i >> 63)) as u64);
    }

    fn f64(&mut self, f: f64) {
        self.out.push(T_F64);
        self.out.extend_from_slice(&f.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.string(s);
    }

    fn array(&mut self, len: usize) {
        self.out.push(T_ARRAY);
        self.varint(len as u64);
    }

    fn object(&mut self, len: usize) {
        self.out.push(T_OBJECT);
        self.varint(len as u64);
    }

    fn key(&mut self, k: &str) {
        self.string(k);
    }
}

struct BinaryDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    table: Vec<String>,
}

impl<'a> BinaryDecoder<'a> {
    fn new(blob: &'a [u8]) -> Result<Self, Error> {
        match blob {
            [MAGIC, VERSION, ..] => Ok(BinaryDecoder {
                bytes: blob,
                pos: 2,
                table: Vec::new(),
            }),
            [MAGIC, v, ..] => Err(Error::msg(format!(
                "unsupported binary plan version {v} (expected {VERSION})"
            ))),
            _ => Err(Error::msg("not a binary plan blob (bad magic)")),
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn byte(&mut self) -> Result<u8, Error> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of blob"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, Error> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint too long"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.err("length prefix past end of blob"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, Error> {
        match self.byte()? {
            T_STR => {
                let len = self.varint()? as usize;
                let s = std::str::from_utf8(self.take(len)?)
                    .map_err(|_| self.err("invalid utf-8 in string"))?
                    .to_string();
                self.table.push(s.clone());
                Ok(s)
            }
            T_STR_REF => {
                let id = self.varint()? as usize;
                self.table
                    .get(id)
                    .cloned()
                    .ok_or_else(|| self.err("string back-reference out of range"))
            }
            _ => Err(self.err("expected string node")),
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.byte()? {
            T_NULL => Ok(Value::Null),
            T_FALSE => Ok(Value::Bool(false)),
            T_TRUE => Ok(Value::Bool(true)),
            T_U64 => Ok(Value::U64(self.varint()?)),
            T_I64 => {
                let z = self.varint()?;
                Ok(Value::I64(((z >> 1) as i64) ^ -((z & 1) as i64)))
            }
            T_F64 => {
                let bits =
                    u64::from_le_bytes(self.take(8)?.try_into().expect("take(8) returns 8 bytes"));
                Ok(Value::F64(f64::from_bits(bits)))
            }
            T_STR | T_STR_REF => {
                self.pos -= 1; // re-read the tag inside string()
                Ok(Value::Str(self.string()?))
            }
            T_ARRAY => {
                let n = self.varint()? as usize;
                // Guard allocation against a corrupt count: each element
                // needs at least one tag byte.
                if n > self.bytes.len() - self.pos {
                    return Err(self.err("array count past end of blob"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            T_OBJECT => {
                let n = self.varint()? as usize;
                if n > self.bytes.len() - self.pos {
                    return Err(self.err("object count past end of blob"));
                }
                let mut entries = serde::Map::with_capacity(n);
                for _ in 0..n {
                    let k = self.string()?;
                    entries.push((k, self.value()?));
                }
                Ok(Value::Object(entries))
            }
            t => Err(self.err(&format!("unknown tag {t}"))),
        }
    }

    fn finish(mut self) -> Result<Value, Error> {
        let v = self.value()?;
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing bytes after value"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Flat layout (see module docs for the byte-level specification)
// ---------------------------------------------------------------------------

/// First byte of a flat blob; outside ASCII and distinct from the Binary
/// magic, so the three codecs can never misparse each other's output.
const FLAT_MAGIC: u8 = 0xF7;
/// Flat layout version, bumped on any incompatible change.
const FLAT_VERSION: u8 = 2;
/// Fixed header size.
const FLAT_HEADER: usize = 35;
/// Fixed part of the summary section; `stages` × u64 peaks follow it.
const FLAT_SUMMARY: usize = 93;
/// Bytes per instruction record.
const FLAT_REC: usize = 34;
/// Bytes per `(id, bytes)` alloc side-table entry.
const FLAT_ALLOC: usize = 16;
/// Bytes per freed-id side-table entry.
const FLAT_FREE: usize = 8;

const KIND_COMPUTE: u8 = 0;
const KIND_COMM_START: u8 = 1;
const KIND_COMM_WAIT: u8 = 2;
const FLAG_BACKWARD: u8 = 1;
const FLAG_RECV: u8 = 2;

/// Typed decode failure of a flat blob. Truncated, bit-flipped or
/// mis-codec'd bytes land in one of these — never a panic, never an
/// out-of-bounds read — which is what keeps the recovery-panic
/// discipline intact on the executor's decode path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The first byte is not the flat magic (wrong codec or garbage).
    BadMagic,
    /// The version byte names a layout this decoder does not speak.
    BadVersion(u8),
    /// The blob ends before a structure it declares (`what` names the
    /// structure, `at` the byte offset where the read began).
    Truncated {
        /// Structure whose bytes are missing.
        what: &'static str,
        /// Offset of the failed read.
        at: usize,
    },
    /// A field holds a structurally impossible value (bad kind tag,
    /// offset table pointing outside the blob, length mismatch).
    Corrupt {
        /// Description of the impossible field.
        what: &'static str,
        /// Offset of the offending field.
        at: usize,
    },
    /// The nested plan section (Binary-coded metadata) failed to decode.
    PlanSection(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a flat plan blob (bad magic)"),
            CodecError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported flat plan version {v} (expected {FLAT_VERSION})"
                )
            }
            CodecError::Truncated { what, at } => {
                write!(f, "flat blob truncated reading {what} at byte {at}")
            }
            CodecError::Corrupt { what, at } => {
                write!(f, "flat blob corrupt: {what} at byte {at}")
            }
            CodecError::PlanSection(e) => write!(f, "flat plan section: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Error {
        Error::msg(e)
    }
}

fn rd_u8(b: &[u8], off: usize) -> Option<u8> {
    b.get(off).copied()
}

fn rd_u32(b: &[u8], off: usize) -> Option<u32> {
    let bytes: [u8; 4] = b.get(off..off.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

fn rd_u64(b: &[u8], off: usize) -> Option<u64> {
    let bytes: [u8; 8] = b.get(off..off.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn as_u32(v: usize, what: &'static str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("flat {what} exceeds u32 range: {v}"))
}

/// Pack a side-table locator: absolute offset in the low 32 bits,
/// element count in the high 32.
fn pack_loc(off: usize, count: usize) -> u64 {
    as_u32(off, "side-table offset") as u64 | (as_u32(count, "side-table count") as u64) << 32
}

/// Lay a [`StoredPlan`] out as a flat arena. Deterministic: the bytes
/// are a pure function of the plan (side tables are emitted in record
/// order), so re-encoding a decoded blob is bit-identical.
pub fn encode_flat(plan: &StoredPlan) -> Vec<u8> {
    let (tag, summary, plan_bytes, programs): (u8, Vec<u8>, Vec<u8>, &[Vec<DeviceProgram>]) =
        match &plan.outcome {
            StoredOutcome::Plan(lowered) => (
                1,
                encode_summary(&IterationSummary::of(&lowered.plan)),
                PlanCodec::Binary.encode(&lowered.plan),
                &lowered.programs,
            ),
            StoredOutcome::Failed(e) => (0, Vec::new(), PlanCodec::Binary.encode(e), &[]),
        };
    let plan_off = FLAT_HEADER + summary.len();
    let dir_off = plan_off + plan_bytes.len();
    let total_devs: usize = programs.iter().map(|r| r.len()).sum();
    let recs_off = dir_off + 4 * programs.len() + 8 * total_devs;
    let total_ops: usize = programs.iter().flatten().map(|p| p.ops.len()).sum();
    let side_off = recs_off + FLAT_REC * total_ops;

    let mut out = Vec::with_capacity(side_off + 64);
    out.push(FLAT_MAGIC);
    out.push(FLAT_VERSION);
    out.push(tag);
    put_u64(&mut out, 0); // total_len, patched at the end
    put_u64(&mut out, plan.iteration as u64);
    put_u32(&mut out, as_u32(plan_off, "plan offset"));
    put_u32(&mut out, as_u32(plan_bytes.len(), "plan length"));
    put_u32(&mut out, as_u32(programs.len(), "replica count"));
    put_u32(&mut out, as_u32(dir_off, "directory offset"));
    debug_assert_eq!(out.len(), FLAT_HEADER);
    out.extend_from_slice(&summary);
    out.extend_from_slice(&plan_bytes);

    // Directory: device counts, then (ops_off, ops_count) replica-major.
    for replica in programs {
        put_u32(&mut out, as_u32(replica.len(), "device count"));
    }
    let mut ops_seen = 0usize;
    for replica in programs {
        for prog in replica {
            put_u32(
                &mut out,
                as_u32(recs_off + FLAT_REC * ops_seen, "ops offset"),
            );
            put_u32(&mut out, as_u32(prog.ops.len(), "ops count"));
            ops_seen += prog.ops.len();
        }
    }
    debug_assert_eq!(out.len(), recs_off);

    // Records, with side tables accumulated for the arena's tail.
    let mut side: Vec<u8> = Vec::new();
    for op in programs.iter().flatten().flat_map(|p| &p.ops) {
        let (kind, label, a, b, c) = match op {
            SimOp::Compute {
                duration,
                allocs,
                frees,
                label,
            } => {
                let a_loc = pack_loc(side_off + side.len(), allocs.len());
                for spec in allocs {
                    put_u64(&mut side, spec.id);
                    put_u64(&mut side, spec.bytes);
                }
                let f_loc = pack_loc(side_off + side.len(), frees.len());
                for id in frees {
                    put_u64(&mut side, *id);
                }
                (KIND_COMPUTE, label, duration.to_bits(), a_loc, f_loc)
            }
            SimOp::CommStart {
                peer,
                bytes,
                tag,
                label,
                ..
            } => (KIND_COMM_START, label, *peer as u64, *bytes, *tag),
            SimOp::CommWait { tag, label } => (KIND_COMM_WAIT, label, *tag, 0, 0),
        };
        out.push(kind);
        let mut flags = 0u8;
        if label.is_backward {
            flags |= FLAG_BACKWARD;
        }
        if matches!(
            op,
            SimOp::CommStart {
                dir: CommDir::Recv,
                ..
            }
        ) {
            flags |= FLAG_RECV;
        }
        out.push(flags);
        put_u32(&mut out, label.micro_batch);
        put_u32(&mut out, label.stage);
        put_u64(&mut out, a);
        put_u64(&mut out, b);
        put_u64(&mut out, c);
    }
    debug_assert_eq!(out.len(), side_off);
    out.extend_from_slice(&side);

    let total = out.len() as u64;
    out[3..11].copy_from_slice(&total.to_le_bytes());
    out
}

/// The summary section of a planned outcome (see the module docs).
fn encode_summary(s: &IterationSummary) -> Vec<u8> {
    let mut out = Vec::with_capacity(FLAT_SUMMARY + 8 * s.est_peak_memory.len());
    let mode = RecomputeMode::ALL
        .iter()
        .position(|&m| m == s.recompute)
        .expect("RecomputeMode::ALL lists every mode");
    out.push(mode as u8);
    put_u64(&mut out, s.est_iteration_time.to_bits());
    put_u64(&mut out, s.dp_sync_time.to_bits());
    put_u64(&mut out, s.planning_time_us.to_bits());
    put_u64(&mut out, s.num_micro_batches as u64);
    put_u64(&mut out, s.actual_tokens);
    let p = &s.padding;
    for v in [
        p.actual_tokens,
        p.padded_tokens,
        p.enc_actual,
        p.enc_padded,
        p.dec_actual,
        p.dec_padded,
    ] {
        put_u64(&mut out, v);
    }
    put_u32(&mut out, as_u32(s.est_peak_memory.len(), "stage count"));
    debug_assert_eq!(out.len(), FLAT_SUMMARY);
    for &peak in &s.est_peak_memory {
        put_u64(&mut out, peak);
    }
    out
}

/// A validated flat blob: the zero-copy decode result.
///
/// [`FlatPlanRef::new`] checks the header and the summary section and
/// walks every offset table and instruction record once — O(records),
/// allocation-free — so that the accessors below and
/// [`FlatReplicaRef`]'s instruction reads never go out of bounds. The
/// blob stays behind the `Arc` the store handed out; nothing is copied
/// or tree-built.
#[derive(Debug, Clone)]
pub struct FlatPlanRef {
    blob: Arc<[u8]>,
    iteration: u64,
    outcome_tag: u8,
    plan_off: usize,
    plan_len: usize,
    replicas: usize,
    dir_off: usize,
}

impl FlatPlanRef {
    /// Validate `blob` and wrap it. This *is* the flat decode step: on
    /// `Ok`, every accessor read is in-bounds by construction.
    pub fn new(blob: Arc<[u8]>) -> Result<FlatPlanRef, CodecError> {
        let b: &[u8] = &blob;
        match rd_u8(b, 0) {
            None => {
                return Err(CodecError::Truncated {
                    what: "magic",
                    at: 0,
                })
            }
            Some(FLAT_MAGIC) => {}
            Some(_) => return Err(CodecError::BadMagic),
        }
        match rd_u8(b, 1) {
            None => {
                return Err(CodecError::Truncated {
                    what: "version",
                    at: 1,
                })
            }
            Some(FLAT_VERSION) => {}
            Some(v) => return Err(CodecError::BadVersion(v)),
        }
        if b.len() < FLAT_HEADER {
            return Err(CodecError::Truncated {
                what: "header",
                at: b.len(),
            });
        }
        let outcome_tag = rd_u8(b, 2).ok_or(CodecError::Truncated {
            what: "outcome",
            at: 2,
        })?;
        if outcome_tag > 1 {
            return Err(CodecError::Corrupt {
                what: "outcome tag",
                at: 2,
            });
        }
        let total_len = rd_u64(b, 3).ok_or(CodecError::Truncated {
            what: "total_len",
            at: 3,
        })?;
        if total_len != b.len() as u64 {
            return Err(CodecError::Corrupt {
                what: "total_len does not match blob length",
                at: 3,
            });
        }
        let iteration = rd_u64(b, 11).ok_or(CodecError::Truncated {
            what: "iteration",
            at: 11,
        })?;
        let plan_off = rd_u32(b, 19).ok_or(CodecError::Truncated {
            what: "plan_off",
            at: 19,
        })? as usize;
        let plan_len = rd_u32(b, 23).ok_or(CodecError::Truncated {
            what: "plan_len",
            at: 23,
        })? as usize;
        let replicas = rd_u32(b, 27).ok_or(CodecError::Truncated {
            what: "replicas",
            at: 27,
        })? as usize;
        let dir_off = rd_u32(b, 31).ok_or(CodecError::Truncated {
            what: "dir_off",
            at: 31,
        })? as usize;
        let len = b.len() as u64;
        // The summary section sits between the header and the plan
        // section, and only a planned outcome has one.
        let summary_end = if outcome_tag == 1 {
            let at = FLAT_HEADER + FLAT_SUMMARY - 4;
            let stages = rd_u32(b, at).ok_or(CodecError::Truncated {
                what: "summary stage count",
                at,
            })?;
            let end = (FLAT_HEADER + FLAT_SUMMARY) as u64 + 8 * stages as u64;
            if end > len {
                return Err(CodecError::Corrupt {
                    what: "summary stage count runs past the blob",
                    at,
                });
            }
            if rd_u8(b, FLAT_HEADER).map_or(true, |m| m as usize >= RecomputeMode::ALL.len()) {
                return Err(CodecError::Corrupt {
                    what: "summary recompute mode",
                    at: FLAT_HEADER,
                });
            }
            end
        } else {
            FLAT_HEADER as u64
        };
        if plan_off as u64 != summary_end || plan_off as u64 + plan_len as u64 > len {
            return Err(CodecError::Corrupt {
                what: "plan section range",
                at: 19,
            });
        }
        if outcome_tag == 0 && replicas != 0 {
            return Err(CodecError::Corrupt {
                what: "failed outcome with replicas",
                at: 27,
            });
        }
        // Walk the directory, validating every program's record range and
        // every record's kind and side-table ranges.
        if dir_off as u64 + 4 * replicas as u64 > len {
            return Err(CodecError::Corrupt {
                what: "directory range",
                at: 31,
            });
        }
        let mut total_devs = 0usize;
        for r in 0..replicas {
            let ndev = rd_u32(b, dir_off + 4 * r).ok_or(CodecError::Truncated {
                what: "device count",
                at: dir_off + 4 * r,
            })?;
            total_devs += ndev as usize;
        }
        let entries_off = dir_off + 4 * replicas;
        if entries_off as u64 + 8 * total_devs as u64 > len {
            return Err(CodecError::Corrupt {
                what: "program directory range",
                at: dir_off,
            });
        }
        for e in 0..total_devs {
            let at = entries_off + 8 * e;
            let ops_off = rd_u32(b, at).ok_or(CodecError::Truncated {
                what: "ops offset",
                at,
            })? as u64;
            let ops = rd_u32(b, at + 4).ok_or(CodecError::Truncated {
                what: "ops count",
                at,
            })? as u64;
            if ops_off + FLAT_REC as u64 * ops > len {
                return Err(CodecError::Corrupt {
                    what: "record range",
                    at,
                });
            }
            for i in 0..ops {
                let rec = (ops_off + FLAT_REC as u64 * i) as usize;
                let kind = rd_u8(b, rec).ok_or(CodecError::Truncated {
                    what: "record kind",
                    at: rec,
                })?;
                match kind {
                    KIND_COMPUTE => {
                        let a_loc = rd_u64(b, rec + 18).ok_or(CodecError::Truncated {
                            what: "allocs locator",
                            at: rec,
                        })?;
                        let f_loc = rd_u64(b, rec + 26).ok_or(CodecError::Truncated {
                            what: "frees locator",
                            at: rec,
                        })?;
                        let (a_off, a_n) = (a_loc & 0xFFFF_FFFF, a_loc >> 32);
                        let (f_off, f_n) = (f_loc & 0xFFFF_FFFF, f_loc >> 32);
                        if a_off + FLAT_ALLOC as u64 * a_n > len {
                            return Err(CodecError::Corrupt {
                                what: "allocs range",
                                at: rec,
                            });
                        }
                        if f_off + FLAT_FREE as u64 * f_n > len {
                            return Err(CodecError::Corrupt {
                                what: "frees range",
                                at: rec,
                            });
                        }
                    }
                    KIND_COMM_START | KIND_COMM_WAIT => {}
                    _ => {
                        return Err(CodecError::Corrupt {
                            what: "record kind",
                            at: rec,
                        })
                    }
                }
            }
        }
        Ok(FlatPlanRef {
            blob,
            iteration,
            outcome_tag,
            plan_off,
            plan_len,
            replicas,
            dir_off,
        })
    }

    /// The training iteration this blob carries.
    pub fn iteration(&self) -> usize {
        self.iteration as usize
    }

    /// Whether the outcome is a planning failure.
    pub fn is_failed(&self) -> bool {
        self.outcome_tag == 0
    }

    /// Read the fixed-width [`IterationSummary`] section: everything the
    /// executor reads of the plan, without touching the plan section.
    pub fn summary(&self) -> Result<IterationSummary, CodecError> {
        if self.outcome_tag != 1 {
            return Err(CodecError::Corrupt {
                what: "summary() on failed outcome",
                at: 2,
            });
        }
        let b: &[u8] = &self.blob;
        let u64_at = |rel: usize| {
            rd_u64(b, FLAT_HEADER + rel).ok_or(CodecError::Truncated {
                what: "summary",
                at: FLAT_HEADER + rel,
            })
        };
        let f64_at = |rel: usize| u64_at(rel).map(f64::from_bits);
        let corrupt = |what, rel| CodecError::Corrupt {
            what,
            at: FLAT_HEADER + rel,
        };
        let recompute = rd_u8(b, FLAT_HEADER)
            .and_then(|m| RecomputeMode::ALL.get(m as usize).copied())
            .ok_or(corrupt("summary recompute mode", 0))?;
        let num_micro_batches =
            usize::try_from(u64_at(25)?).map_err(|_| corrupt("summary micro-batch count", 25))?;
        let stages = rd_u32(b, FLAT_HEADER + FLAT_SUMMARY - 4)
            .ok_or(corrupt("summary stage count", FLAT_SUMMARY - 4))?;
        Ok(IterationSummary {
            recompute,
            est_iteration_time: f64_at(1)?,
            dp_sync_time: f64_at(9)?,
            planning_time_us: f64_at(17)?,
            num_micro_batches,
            actual_tokens: u64_at(33)?,
            padding: PaddingStats {
                actual_tokens: u64_at(41)?,
                padded_tokens: u64_at(49)?,
                enc_actual: u64_at(57)?,
                enc_padded: u64_at(65)?,
                dec_actual: u64_at(73)?,
                dec_padded: u64_at(81)?,
            },
            est_peak_memory: (0..stages as usize)
                .map(|j| u64_at(FLAT_SUMMARY + 8 * j))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Materialize the [`IterationPlan`] metadata section: the only tree
    /// decode on the flat path, which the executor never makes (it reads
    /// [`FlatPlanRef::summary`]). The instruction records (the bulk of
    /// the bytes) are executed in place and never materialized.
    pub fn plan(&self) -> Result<IterationPlan, CodecError> {
        if self.outcome_tag != 1 {
            return Err(CodecError::Corrupt {
                what: "plan() on failed outcome",
                at: 2,
            });
        }
        let section = &self.blob[self.plan_off..self.plan_off + self.plan_len];
        let v = PlanCodec::Binary
            .decode_value(section)
            .map_err(|e| CodecError::PlanSection(e.0))?;
        serde::Deserialize::from_value(&v).map_err(|e: Error| CodecError::PlanSection(e.0))
    }

    /// Materialize the [`PlanError`] of a failed outcome.
    pub fn failure(&self) -> Result<PlanError, CodecError> {
        if self.outcome_tag != 0 {
            return Err(CodecError::Corrupt {
                what: "failure() on plan outcome",
                at: 2,
            });
        }
        let section = &self.blob[self.plan_off..self.plan_off + self.plan_len];
        let v = PlanCodec::Binary
            .decode_value(section)
            .map_err(|e| CodecError::PlanSection(e.0))?;
        serde::Deserialize::from_value(&v).map_err(|e: Error| CodecError::PlanSection(e.0))
    }

    /// Number of data-parallel replicas.
    // lint:allow(pub-uncalled): oracle for tests/serialization.rs `flat_summary_equals_the_plans_bit_for_bit`
    pub fn num_replicas(&self) -> usize {
        self.replicas
    }

    /// Zero-copy handle on replica `r`'s device programs (shares the
    /// `Arc`), or `None` past the end.
    pub fn replica(&self, r: usize) -> Option<FlatReplicaRef> {
        if r >= self.replicas {
            return None;
        }
        let b: &[u8] = &self.blob;
        // Device entries for replica r start after the counts of
        // replicas 0..r (validated in `new`).
        let mut skip = 0usize;
        for q in 0..r {
            skip += rd_u32(b, self.dir_off + 4 * q)? as usize;
        }
        let ndev = rd_u32(b, self.dir_off + 4 * r)? as usize;
        Some(FlatReplicaRef {
            blob: Arc::clone(&self.blob),
            entries_off: self.dir_off + 4 * self.replicas + 8 * skip,
            ndev,
        })
    }

    /// All replica handles, in order.
    pub fn replicas(&self) -> Vec<FlatReplicaRef> {
        (0..self.replicas).filter_map(|r| self.replica(r)).collect()
    }

    /// Rebuild an owned [`StoredPlan`] — the generic (non-zero-copy)
    /// decode used by `StoredPlan::decode` and the differential tests.
    /// The runtime's hot path never calls this; it executes the blob in
    /// place.
    pub fn to_stored(&self) -> Result<StoredPlan, CodecError> {
        let outcome = if self.is_failed() {
            StoredOutcome::Failed(self.failure()?)
        } else {
            let plan = self.plan()?;
            let mut programs = Vec::with_capacity(self.replicas);
            for r in 0..self.replicas {
                let replica = self.replica(r).ok_or(CodecError::Corrupt {
                    what: "replica index",
                    at: self.dir_off,
                })?;
                let mut devs = Vec::with_capacity(replica.num_devices());
                for d in 0..replica.num_devices() {
                    let mut prog = DeviceProgram::new();
                    for pc in 0..replica.num_ops(d) {
                        let op = replica.op_view(d, pc).ok_or(CodecError::Corrupt {
                            what: "op view",
                            at: self.dir_off,
                        })?;
                        prog.push(own_op(op));
                    }
                    devs.push(prog);
                }
                programs.push(devs);
            }
            StoredOutcome::Plan(StoredLowered { plan, programs })
        };
        Ok(StoredPlan {
            iteration: self.iteration(),
            outcome,
        })
    }
}

/// Materialize one view into an owned [`SimOp`].
fn own_op(op: OpView<'_>) -> SimOp {
    match op {
        OpView::Compute {
            duration,
            allocs,
            frees,
            label,
        } => SimOp::Compute {
            duration,
            allocs: allocs.iter().collect(),
            frees: frees.iter().collect(),
            label,
        },
        OpView::CommStart {
            peer,
            dir,
            bytes,
            tag,
            label,
        } => SimOp::CommStart {
            peer,
            dir,
            bytes,
            tag,
            label,
        },
        OpView::CommWait { tag, label } => SimOp::CommWait { tag, label },
    }
}

/// One replica's device programs, read in place from a validated flat
/// blob. Implements [`InstructionSource`], so `sim::Engine` executes the
/// wire bytes directly — this is the type the runtime hands to
/// `execute_lowered` on the flat path.
#[derive(Debug, Clone)]
pub struct FlatReplicaRef {
    blob: Arc<[u8]>,
    /// Offset of this replica's (ops_off, ops_count) directory entries.
    entries_off: usize,
    /// Device count.
    ndev: usize,
}

impl InstructionSource for FlatReplicaRef {
    fn num_devices(&self) -> usize {
        self.ndev
    }

    fn num_ops(&self, device: usize) -> usize {
        if device >= self.ndev {
            return 0;
        }
        rd_u32(&self.blob, self.entries_off + 8 * device + 4).map_or(0, |n| n as usize)
    }

    fn op_view(&self, device: usize, pc: usize) -> Option<OpView<'_>> {
        if device >= self.ndev {
            return None;
        }
        let at = self.entries_off + 8 * device;
        let ops_off = rd_u32(&self.blob, at)? as usize;
        let ops = rd_u32(&self.blob, at + 4)? as usize;
        if pc >= ops {
            return None;
        }
        record_view(&self.blob, ops_off + FLAT_REC * pc)
    }
}

/// Project the 34-byte record at `off` into an [`OpView`] whose
/// variable-length payloads borrow the blob's side tables. All reads are
/// bounds-checked `Option` chains: on a blob validated by
/// [`FlatPlanRef::new`] they cannot fail, and on anything else they
/// return `None` instead of panicking.
fn record_view(blob: &[u8], off: usize) -> Option<OpView<'_>> {
    let flags = rd_u8(blob, off + 1)?;
    let label = OpLabel {
        micro_batch: rd_u32(blob, off + 2)?,
        stage: rd_u32(blob, off + 6)?,
        is_backward: flags & FLAG_BACKWARD != 0,
    };
    let a = rd_u64(blob, off + 10)?;
    let b = rd_u64(blob, off + 18)?;
    let c = rd_u64(blob, off + 26)?;
    match rd_u8(blob, off)? {
        KIND_COMPUTE => {
            let (a_off, a_n) = ((b & 0xFFFF_FFFF) as usize, (b >> 32) as usize);
            let (f_off, f_n) = ((c & 0xFFFF_FFFF) as usize, (c >> 32) as usize);
            Some(OpView::Compute {
                duration: f64::from_bits(a),
                allocs: AllocsRef::Raw(
                    blob.get(a_off..a_off.checked_add(FLAT_ALLOC.checked_mul(a_n)?)?)?,
                ),
                frees: FreesRef::Raw(
                    blob.get(f_off..f_off.checked_add(FLAT_FREE.checked_mul(f_n)?)?)?,
                ),
                label,
            })
        }
        KIND_COMM_START => Some(OpView::CommStart {
            peer: usize::try_from(a).ok()?,
            dir: if flags & FLAG_RECV != 0 {
                CommDir::Recv
            } else {
                CommDir::Send
            },
            bytes: b,
            tag: c,
            label,
        }),
        KIND_COMM_WAIT => Some(OpView::CommWait { tag: a, label }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let blob = PlanCodec::Binary.encode(v);
        PlanCodec::Binary.decode_value(&blob).expect("decodes")
    }

    fn assert_identical(a: &Value, b: &Value) {
        // Variant-exact (PartialEq alone would accept U64 1 == F64 1.0),
        // recursing structurally; floats by bit pattern.
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => assert_eq!(x.to_bits(), y.to_bits()),
            (Value::Array(xs), Value::Array(ys)) => {
                assert_eq!(xs.len(), ys.len());
                for (x, y) in xs.iter().zip(ys) {
                    assert_identical(x, y);
                }
            }
            (Value::Object(xs), Value::Object(ys)) => {
                assert_eq!(xs.len(), ys.len());
                for ((ka, va), (kb, vb)) in xs.iter().zip(ys) {
                    assert_eq!(ka, kb);
                    assert_identical(va, vb);
                }
            }
            (Value::U64(x), Value::U64(y)) => assert_eq!(x, y),
            (Value::I64(x), Value::I64(y)) => assert_eq!(x, y),
            (Value::Str(x), Value::Str(y)) => assert_eq!(x, y),
            (Value::Bool(x), Value::Bool(y)) => assert_eq!(x, y),
            (Value::Null, Value::Null) => {}
            (x, y) => panic!("variant mismatch: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn binary_roundtrips_every_variant_exactly() {
        let v = Value::Object(vec![
            ("null".into(), Value::Null),
            ("t".into(), Value::Bool(true)),
            ("f".into(), Value::Bool(false)),
            (
                "u".into(),
                Value::Array(vec![
                    Value::U64(0),
                    Value::U64(127),
                    Value::U64(128),
                    Value::U64(u64::MAX),
                ]),
            ),
            (
                "i".into(),
                Value::Array(vec![
                    Value::I64(0),
                    Value::I64(-1),
                    Value::I64(i64::MIN),
                    Value::I64(i64::MAX),
                ]),
            ),
            (
                "f64".into(),
                Value::Array(vec![
                    Value::F64(0.0),
                    Value::F64(-0.0),
                    Value::F64(f64::INFINITY),
                    Value::F64(f64::NEG_INFINITY),
                    Value::F64(1.0000000000000002),
                ]),
            ),
            ("s".into(), Value::Str("hello \"wire\" \u{1F600}".into())),
            ("empty".into(), Value::Array(vec![])),
        ]);
        assert_identical(&roundtrip(&v), &v);
    }

    #[test]
    fn binary_preserves_nan_bits_where_json_cannot() {
        // JSON tags non-finite floats as strings; the binary codec keeps
        // the exact bit pattern, including a NaN payload.
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        match roundtrip(&Value::F64(weird)) {
            Value::F64(f) => assert_eq!(f.to_bits(), weird.to_bits()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn binary_reencode_is_bit_identical() {
        let v = Value::Array(vec![
            Value::Object(vec![
                ("duration".into(), Value::F64(1.5)),
                ("label".into(), Value::Str("Compute".into())),
            ]),
            Value::Object(vec![
                ("duration".into(), Value::F64(2.5)),
                ("label".into(), Value::Str("Compute".into())),
            ]),
        ]);
        let blob = PlanCodec::Binary.encode(&v);
        let back = PlanCodec::Binary.decode_value(&blob).unwrap();
        assert_eq!(PlanCodec::Binary.encode(&back), blob);
    }

    #[test]
    fn interning_collapses_repeated_strings() {
        let once = Value::Array(vec![Value::Str("a-reasonably-long-key".into())]);
        let many = Value::Array(
            (0..64)
                .map(|_| Value::Str("a-reasonably-long-key".into()))
                .collect(),
        );
        let b1 = PlanCodec::Binary.encode(&once).len();
        let b64 = PlanCodec::Binary.encode(&many).len();
        // 63 back-references cost ~2 bytes each, not 21+.
        assert!(
            b64 < b1 + 63 * 3,
            "interning failed: 64 copies cost {b64} bytes vs {b1} for one"
        );
    }

    #[test]
    fn codec_mismatch_fails_loudly() {
        let v = Value::Object(vec![("k".into(), Value::U64(1))]);
        let json = PlanCodec::Json.encode(&v);
        let binary = PlanCodec::Binary.encode(&v);
        assert!(PlanCodec::Binary.decode_value(&json).is_err());
        assert!(PlanCodec::Json.decode_value(&binary).is_err());
    }

    #[test]
    fn truncated_and_corrupt_blobs_error_cleanly() {
        let v = Value::Array(vec![Value::Str("abc".into()), Value::U64(7)]);
        let blob = PlanCodec::Binary.encode(&v);
        for cut in 0..blob.len() {
            assert!(
                PlanCodec::Binary.decode_value(&blob[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(PlanCodec::Binary.decode_value(&trailing).is_err());
        let mut bad_tag = blob;
        *bad_tag.last_mut().unwrap() = 0xEE;
        assert!(PlanCodec::Binary.decode_value(&bad_tag).is_err());
    }

    use crate::store::{StoredLowered, StoredOutcome, StoredPlan};
    use dynapipe_sim::{AllocSpec, CommDir, DeviceProgram, InstructionSource, SimOp};

    fn flat_fixture() -> StoredPlan {
        let lbl = |mb: u32, bwd: bool| OpLabel {
            micro_batch: mb,
            stage: 0,
            is_backward: bwd,
        };
        let mut p0 = DeviceProgram::new();
        p0.push(SimOp::Compute {
            duration: 123.456,
            allocs: vec![AllocSpec { id: 1, bytes: 4096 }],
            frees: vec![],
            label: lbl(0, false),
        });
        p0.push(SimOp::CommStart {
            peer: 1,
            dir: CommDir::Send,
            bytes: 777,
            tag: 9,
            label: lbl(0, false),
        });
        p0.push(SimOp::Compute {
            duration: 50.0,
            allocs: vec![],
            frees: vec![1],
            label: lbl(0, true),
        });
        let mut p1 = DeviceProgram::new();
        p1.push(SimOp::CommStart {
            peer: 0,
            dir: CommDir::Recv,
            bytes: 777,
            tag: 9,
            label: lbl(0, false),
        });
        p1.push(SimOp::CommWait {
            tag: 9,
            label: lbl(0, false),
        });
        StoredPlan {
            iteration: 42,
            outcome: StoredOutcome::Plan(StoredLowered {
                plan: IterationPlan {
                    replicas: Vec::new(),
                    recompute: dynapipe_model::RecomputeMode::None,
                    est_iteration_time: 1.5,
                    dp_sync_time: 0.25,
                    padding: Default::default(),
                    num_micro_batches: 1,
                    actual_tokens: 512,
                    planning_time_us: 10.0,
                },
                programs: vec![vec![p0, p1]],
            }),
        }
    }

    #[test]
    fn flat_roundtrips_through_to_stored() {
        let plan = flat_fixture();
        let blob = plan.encode(PlanCodec::Flat);
        let flat = FlatPlanRef::new(Arc::from(blob.as_slice())).expect("validates");
        assert_eq!(flat.iteration(), 42);
        assert!(!flat.is_failed());
        assert_eq!(flat.num_replicas(), 1);
        assert_eq!(flat.to_stored().expect("rebuilds"), plan);
        // Re-encode is bit-identical: the arena is a pure function of
        // the plan.
        assert_eq!(flat.to_stored().unwrap().encode(PlanCodec::Flat), blob);
    }

    #[test]
    fn flat_views_match_owned_ops() {
        let plan = flat_fixture();
        let blob = plan.encode(PlanCodec::Flat);
        let flat = FlatPlanRef::new(Arc::from(blob.as_slice())).expect("validates");
        let replica = flat.replica(0).expect("one replica");
        assert_eq!(replica.num_devices(), 2);
        assert_eq!(replica.num_ops(0), 3);
        assert_eq!(replica.num_ops(1), 2);
        match replica.op_view(0, 0) {
            Some(OpView::Compute {
                duration, allocs, ..
            }) => {
                assert_eq!(duration.to_bits(), 123.456f64.to_bits());
                assert_eq!(allocs.get(0), Some(AllocSpec { id: 1, bytes: 4096 }));
            }
            other => panic!("expected Compute, got {other:?}"),
        }
        match replica.op_view(1, 0) {
            Some(OpView::CommStart {
                peer,
                dir,
                bytes,
                tag,
                ..
            }) => {
                assert_eq!((peer, bytes, tag), (0, 777, 9));
                assert_eq!(dir, CommDir::Recv);
            }
            other => panic!("expected CommStart, got {other:?}"),
        }
        assert!(replica.op_view(0, 3).is_none());
        // The third record of device 0 is a backward Compute.
        match replica.op_view(0, 2) {
            Some(OpView::Compute { label, .. }) => assert!(label.is_backward),
            other => panic!("expected Compute, got {other:?}"),
        }
    }

    #[test]
    fn flat_failed_outcome_roundtrips_with_no_programs() {
        let plan = StoredPlan {
            iteration: 7,
            outcome: StoredOutcome::Failed(crate::planner::PlanError::Infeasible(
                "no feasible mode".to_string(),
            )),
        };
        let blob = plan.encode(PlanCodec::Flat);
        let flat = FlatPlanRef::new(Arc::from(blob.as_slice())).expect("validates");
        assert!(flat.is_failed());
        assert_eq!(flat.num_replicas(), 0);
        assert_eq!(flat.to_stored().expect("rebuilds"), plan);
        assert!(flat.plan().is_err(), "plan() on a failure must not succeed");
    }

    #[test]
    fn flat_truncation_and_corruption_yield_typed_errors() {
        let blob = flat_fixture().encode(PlanCodec::Flat);
        for cut in 0..blob.len() {
            let err = FlatPlanRef::new(Arc::from(&blob[..cut])).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::Corrupt { .. }
                ),
                "truncation at {cut} gave {err:?}"
            );
        }
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(matches!(
            FlatPlanRef::new(Arc::from(trailing.as_slice())),
            Err(CodecError::Corrupt { .. })
        ));
        let mut wrong_magic = blob.clone();
        wrong_magic[0] = super::MAGIC; // the Binary magic
        assert_eq!(
            FlatPlanRef::new(Arc::from(wrong_magic.as_slice())).unwrap_err(),
            CodecError::BadMagic
        );
        let mut future = blob.clone();
        future[1] = 9;
        assert_eq!(
            FlatPlanRef::new(Arc::from(future.as_slice())).unwrap_err(),
            CodecError::BadVersion(9)
        );
        // Other codecs' output is rejected at the magic byte.
        let json = flat_fixture().encode(PlanCodec::Json);
        let binary = flat_fixture().encode(PlanCodec::Binary);
        assert!(FlatPlanRef::new(Arc::from(json.as_slice())).is_err());
        assert!(FlatPlanRef::new(Arc::from(binary.as_slice())).is_err());
    }

    #[test]
    fn flat_bytes_stay_close_to_binary() {
        // The acceptance gate in fig09_cluster enforces this over its
        // datacenter sweep; this is the unit-level canary on a miniature
        // plan.
        let plan = flat_fixture();
        let flat = plan.encode(PlanCodec::Flat).len();
        let binary = plan.encode(PlanCodec::Binary).len();
        assert!(
            flat as f64 <= binary as f64 * 1.25,
            "flat {flat} bytes vs binary {binary}"
        );
    }

    #[test]
    fn binary_beats_json_on_a_plan_shaped_tree() {
        // Miniature of a device program: repeated keys, enum tags, floats.
        let op = |d: f64, mb: u64| {
            Value::Object(vec![(
                "Compute".into(),
                Value::Object(vec![
                    ("duration".into(), Value::F64(d)),
                    (
                        "allocs".into(),
                        Value::Array(vec![Value::Object(vec![
                            ("id".into(), Value::U64(mb)),
                            ("bytes".into(), Value::U64(123_456_789)),
                        ])]),
                    ),
                    ("frees".into(), Value::Array(vec![Value::U64(mb)])),
                ]),
            )])
        };
        let tree = Value::Array((0..32).map(|i| op(1234.5678 + i as f64, i)).collect());
        let json = PlanCodec::Json.encode(&tree).len();
        let binary = PlanCodec::Binary.encode(&tree).len();
        assert!(
            binary * 2 <= json,
            "binary {binary} bytes must be at most half of JSON {json}"
        );
    }
}
