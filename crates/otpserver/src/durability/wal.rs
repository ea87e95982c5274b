//! The write-ahead-log record codec.
//!
//! Every mutation of the token store or audit log is appended to the WAL
//! as one *frame* before the operation is acknowledged:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. The payload is a tagged
//! binary encoding of one [`WalRecord`]. The decoder walks frames until the
//! bytes run out; a frame whose length field overruns the buffer is a *torn
//! tail* (the classic crash-mid-write shape), a frame whose checksum or
//! payload fails to parse is *corrupt*. Either way decoding stops at the
//! offset of the bad frame: recovery keeps the clean prefix and truncates
//! the rest, which is exactly the LinOTP/MariaDB redo-log posture the paper
//! relies on (§3.1–§3.2).
//!
//! CRC-32 is linear in its input, so a single flipped bit always changes
//! the checksum — a property the codec proptests pin down.

use crate::audit::{AuditAction, NewRow, RowView};
use crate::sms::PhoneNumber;
use crate::store::{PendingSmsCode, TokenPairing, TotpProvenance, UserTokenRecord};
use hpcmfa_crypto::HashAlg;
use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::{Totp, TotpParams};

/// Upper bound on a single record payload. A length field beyond this is
/// treated as corruption rather than an allocation request — a bit-flipped
/// length must never make the decoder try to allocate gigabytes.
pub(crate) const MAX_RECORD_LEN: u32 = 1 << 20;

/// Bytes of framing overhead per record (length + checksum).
pub const FRAME_HEADER_LEN: usize = 8;

/// Slicing-by-8 tables, built at compile time into one static (8 KiB of
/// read-only data). `CRC_TABLES[0][b]` is the CRC of byte value `b` on its
/// own — the bitwise recurrence; `CRC_TABLES[k][b]` is that CRC carried
/// through `k` more zero bytes, so eight lookups fold eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
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
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320), eight bytes per step
/// with eight independent table lookups, the tail a byte at a time. A
/// commit's frames are small next to the fsync it waits for, but a
/// compaction checksums the whole snapshot (a few hundred KB) while it
/// holds every commit off. The lookups are indexed by frame bytes, and
/// snapshot frames hold pairing secrets: like any table-driven CRC this
/// is not constant-time (DESIGN.md §8).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |v: u32, at: u32| ((v >> at) & 0xff) as usize;
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

/// One logged state mutation. Replaying the records of a clean WAL in
/// order over the snapshot reproduces the pre-crash store and audit log.
/// Pairing records hold the shared secret: the WAL replaces the MariaDB
/// tables that hold the same material in the paper's deployment, and must
/// be protected accordingly (file permissions, encrypted volume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A pairing was enrolled or replaced (fail state resets).
    Enroll {
        /// Account.
        user: String,
        /// The new pairing.
        pairing: TokenPairing,
    },
    /// A pairing was removed.
    Remove {
        /// Account.
        user: String,
    },
    /// Post-validation security state: replay high-water mark, failure
    /// counter, active flag. One record per validation attempt.
    ValState {
        /// Account.
        user: String,
        /// New replay mark; `None` leaves the stored mark untouched.
        /// Replay applies `max`, so the mark can never regress.
        last_step: Option<u64>,
        /// Consecutive-failure counter after the attempt.
        fail_count: u32,
        /// Whether the account is active after the attempt.
        active: bool,
    },
    /// An admin resynchronization succeeded.
    Resync {
        /// Account.
        user: String,
        /// New drift offset in steps.
        drift_steps: i64,
        /// New replay mark (max-merged on replay).
        last_step: u64,
    },
    /// An SMS code was issued.
    SmsIssue {
        /// Account.
        user: String,
        /// The six-digit code.
        code: String,
        /// Issue time.
        sent_at: u64,
        /// Expiry time.
        expires_at: u64,
    },
    /// The outstanding SMS code was consumed or purged.
    SmsClear {
        /// Account.
        user: String,
    },
    /// An audit-log entry.
    Audit {
        /// Event time.
        at: u64,
        /// Account.
        user: String,
        /// What was done.
        action: AuditAction,
        /// Operation success flag.
        success: bool,
        /// Free-form detail.
        detail: String,
    },
    /// A session-resumption token's single-use nonce was consumed.
    /// Appended (and fsynced) before the accept is acknowledged, so
    /// replaying the WAL rebuilds the nonce ledger and a stolen token
    /// replayed after a crash or failover is still denied.
    ResumeConsume {
        /// Account that presented the token (forensic context only; the
        /// ledger keys on the nonce).
        user: String,
        /// The token's 128-bit nonce.
        nonce: [u8; 16],
        /// When the token's stateless expiry takes over and the ledger
        /// may forget this nonce.
        expires_at: u64,
    },
    /// Snapshot-only: one user's full record.
    SnapshotUser {
        /// Account.
        user: String,
        /// The pairing.
        pairing: TokenPairing,
        /// Failure counter.
        fail_count: u32,
        /// Active flag.
        active: bool,
    },
    /// Snapshot-only: trailing seal carrying the expected record counts —
    /// a snapshot without a matching seal is rejected wholesale.
    SnapshotSeal {
        /// User records in the snapshot.
        users: u64,
        /// Audit records in the snapshot.
        audits: u64,
        /// Audit entries dropped by the retention ring before the snapshot.
        audit_dropped: u64,
        /// Consumed resumption-nonce records in the snapshot.
        resumes: u64,
    },
}

// ---------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------

const TAG_ENROLL: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_VALSTATE: u8 = 3;
const TAG_RESYNC: u8 = 4;
const TAG_SMS_ISSUE: u8 = 5;
const TAG_SMS_CLEAR: u8 = 6;
pub(crate) const TAG_AUDIT: u8 = 7;
pub(crate) const TAG_SNAP_USER: u8 = 8;
const TAG_SNAP_SEAL: u8 = 9;
const TAG_RESUME_CONSUME: u8 = 10;

const PAIR_TOTP: u8 = 1;
const PAIR_SMS: u8 = 2;
const PAIR_STATIC: u8 = 3;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
        None => out.push(0),
    }
}

fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
    match v {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn put_pairing(out: &mut Vec<u8>, pairing: &TokenPairing) {
    match pairing {
        TokenPairing::Totp {
            totp,
            provenance,
            serial,
            last_step,
            drift_steps,
        } => {
            out.push(PAIR_TOTP);
            put_bytes(out, totp.secret.bytes());
            put_u32(out, totp.params.digits);
            put_u64(out, totp.params.step_secs);
            put_u64(out, totp.params.t0);
            put_str(out, totp.params.alg.name());
            out.push(u8::from(*provenance == TotpProvenance::Hard));
            put_opt_str(out, serial.as_deref());
            put_opt_u64(out, *last_step);
            put_i64(out, *drift_steps);
        }
        TokenPairing::Sms { phone, pending } => {
            out.push(PAIR_SMS);
            put_str(out, phone.as_str());
            match pending {
                Some(p) => {
                    out.push(1);
                    put_str(out, &p.code);
                    put_u64(out, p.sent_at);
                    put_u64(out, p.expires_at);
                }
                None => out.push(0),
            }
        }
        TokenPairing::Static { code } => {
            out.push(PAIR_STATIC);
            put_str(out, code);
        }
    }
}

/// The [`WalRecord::SnapshotUser`] payload.
fn put_snapshot_user(
    out: &mut Vec<u8>,
    user: &str,
    pairing: &TokenPairing,
    fail_count: u32,
    active: bool,
) {
    out.push(TAG_SNAP_USER);
    put_str(out, user);
    put_pairing(out, pairing);
    put_u32(out, fail_count);
    out.push(u8::from(active));
}

/// Append the [`WalRecord::SnapshotUser`] frame of a live store record.
pub(crate) fn snapshot_user_frame_into(out: &mut Vec<u8>, user: &str, rec: &UserTokenRecord) {
    frame_into(out, |out| {
        put_snapshot_user(out, user, &rec.pairing, rec.fail_count, rec.active)
    });
}

/// The [`WalRecord::ValState`] payload from borrowed fields — the commit
/// path writes it straight into its frame buffer without building the
/// owned record.
pub(crate) fn put_val_state(
    out: &mut Vec<u8>,
    user: &str,
    last_step: Option<u64>,
    fail_count: u32,
    active: bool,
) {
    out.push(TAG_VALSTATE);
    put_str(out, user);
    put_opt_u64(out, last_step);
    put_u32(out, fail_count);
    out.push(u8::from(active));
}

/// Append one frame to `out`: reserve the header, let `payload` write the
/// body in place, then fill in its length and checksum.
pub(crate) fn frame_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    payload(out);
    let body = start + FRAME_HEADER_LEN;
    let len = (out.len() - body) as u32;
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
}

impl WalRecord {
    /// Encode the payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_payload_into(&mut out);
        out
    }

    /// Append the payload (no frame header) to `out`.
    fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Enroll { user, pairing } => {
                out.push(TAG_ENROLL);
                put_str(out, user);
                put_pairing(out, pairing);
            }
            WalRecord::Remove { user } => {
                out.push(TAG_REMOVE);
                put_str(out, user);
            }
            WalRecord::ValState {
                user,
                last_step,
                fail_count,
                active,
            } => put_val_state(out, user, *last_step, *fail_count, *active),
            WalRecord::Resync {
                user,
                drift_steps,
                last_step,
            } => {
                out.push(TAG_RESYNC);
                put_str(out, user);
                put_i64(out, *drift_steps);
                put_u64(out, *last_step);
            }
            WalRecord::SmsIssue {
                user,
                code,
                sent_at,
                expires_at,
            } => {
                out.push(TAG_SMS_ISSUE);
                put_str(out, user);
                put_str(out, code);
                put_u64(out, *sent_at);
                put_u64(out, *expires_at);
            }
            WalRecord::SmsClear { user } => {
                out.push(TAG_SMS_CLEAR);
                put_str(out, user);
            }
            WalRecord::Audit {
                at,
                user,
                action,
                success,
                detail,
            } => NewRow {
                at: *at,
                user,
                action: *action,
                success: *success,
                detail,
                trace: None,
            }
            .payload_into(out),
            WalRecord::SnapshotUser {
                user,
                pairing,
                fail_count,
                active,
            } => put_snapshot_user(out, user, pairing, *fail_count, *active),
            WalRecord::ResumeConsume {
                user,
                nonce,
                expires_at,
            } => {
                out.push(TAG_RESUME_CONSUME);
                put_str(out, user);
                out.extend_from_slice(nonce);
                put_u64(out, *expires_at);
            }
            WalRecord::SnapshotSeal {
                users,
                audits,
                audit_dropped,
                resumes,
            } => {
                out.push(TAG_SNAP_SEAL);
                put_u64(out, *users);
                put_u64(out, *audits);
                put_u64(out, *audit_dropped);
                put_u64(out, *resumes);
            }
        }
    }

    /// Encode a full frame: header + payload.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// Append a full frame (header + payload) to `out` — how a commit
    /// lays several records back to back in one buffer.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        frame_into(out, |out| self.encode_payload_into(out));
    }
}

// ---------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a payload (shared with the replication
/// frame codec).
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Everything after the cursor, consuming it.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        s
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..)?.get(..n)?;
        self.pos += n;
        Some(s)
    }

    /// The next `N` bytes as an array: every fixed-size read goes
    /// through here.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let chunk = *self.bytes.get(self.pos..)?.first_chunk::<N>()?;
        self.pos += N;
        Some(chunk)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn i64(&mut self) -> Option<i64> {
        self.array().map(i64::from_le_bytes)
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        if len > MAX_RECORD_LEN as usize {
            return None;
        }
        self.take(len).map(|b| b.to_vec())
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }

    fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    fn opt_string(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.string()?)),
            _ => None,
        }
    }

    /// A pairing, built and checked as a restore checks one: `Some(None)`
    /// when it is well formed but no longer validates — an algorithm
    /// label, digit count, step or phone number no live pairing holds.
    fn pairing(&mut self) -> Option<Option<TokenPairing>> {
        Some(match self.u8()? {
            PAIR_TOTP => {
                let secret = Secret::from_bytes(self.bytes()?);
                let (digits, step_secs, t0) = (self.u32()?, self.u64()?, self.u64()?);
                let alg = HashAlg::parse(&self.string()?);
                let provenance = match self.bool()? {
                    true => TotpProvenance::Hard,
                    false => TotpProvenance::Soft,
                };
                let (serial, last_step, drift_steps) =
                    (self.opt_string()?, self.opt_u64()?, self.i64()?);
                alg.and_then(|alg| {
                    let params = TotpParams {
                        digits,
                        step_secs,
                        t0,
                        alg,
                    };
                    params.validated().ok()
                })
                .map(|params| TokenPairing::Totp {
                    totp: Totp::with_params(secret, params),
                    provenance,
                    serial,
                    last_step,
                    drift_steps,
                })
            }
            PAIR_SMS => {
                let phone = self.string()?;
                let pending = match self.u8()? {
                    0 => None,
                    1 => Some(PendingSmsCode {
                        code: self.string()?,
                        sent_at: self.u64()?,
                        expires_at: self.u64()?,
                    }),
                    _ => return None,
                };
                let phone = PhoneNumber::parse(&phone).ok();
                phone.map(|phone| TokenPairing::Sms { phone, pending })
            }
            PAIR_STATIC => Some(TokenPairing::Static {
                code: self.string()?,
            }),
            _ => return None,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decode one payload: `None` if it is malformed, `Some(Err(tag))` if it
/// is a well-formed record of kind `tag` whose pairing no longer
/// validates — recovery skips and counts those, they are not corruption.
/// Never panics.
fn decode(payload: &[u8]) -> Option<Result<WalRecord, u8>> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    let rec = match tag {
        TAG_ENROLL => {
            let user = r.string()?;
            r.pairing()?
                .map(|pairing| WalRecord::Enroll { user, pairing })
        }
        TAG_REMOVE => Some(WalRecord::Remove { user: r.string()? }),
        TAG_VALSTATE => Some(WalRecord::ValState {
            user: r.string()?,
            last_step: r.opt_u64()?,
            fail_count: r.u32()?,
            active: r.bool()?,
        }),
        TAG_RESYNC => Some(WalRecord::Resync {
            user: r.string()?,
            drift_steps: r.i64()?,
            last_step: r.u64()?,
        }),
        TAG_SMS_ISSUE => Some(WalRecord::SmsIssue {
            user: r.string()?,
            code: r.string()?,
            sent_at: r.u64()?,
            expires_at: r.u64()?,
        }),
        TAG_SMS_CLEAR => Some(WalRecord::SmsClear { user: r.string()? }),
        TAG_AUDIT => {
            let row = RowView::parse(payload)?;
            return Some(Ok(WalRecord::Audit {
                at: row.at,
                user: row.user.to_string(),
                action: row.action,
                success: row.success,
                detail: row.detail.to_string(),
            }));
        }
        TAG_SNAP_USER => {
            let user = r.string()?;
            let pairing = r.pairing()?;
            let (fail_count, active) = (r.u32()?, r.bool()?);
            pairing.map(|pairing| WalRecord::SnapshotUser {
                user,
                pairing,
                fail_count,
                active,
            })
        }
        TAG_SNAP_SEAL => Some(WalRecord::SnapshotSeal {
            users: r.u64()?,
            audits: r.u64()?,
            audit_dropped: r.u64()?,
            resumes: r.u64()?,
        }),
        TAG_RESUME_CONSUME => Some(WalRecord::ResumeConsume {
            user: r.string()?,
            nonce: r.array()?,
            expires_at: r.u64()?,
        }),
        _ => return None,
    };
    // Trailing garbage inside a checksummed frame is malformed.
    r.done().then(|| rec.ok_or(tag))
}

impl WalRecord {
    /// Decode one payload. `None` if it is malformed or holds a pairing
    /// that no longer validates; never panics.
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        decode(payload)?.ok()
    }
}

// ---------------------------------------------------------------------
// Stream decoding
// ---------------------------------------------------------------------

/// How the end of a WAL byte stream looked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The stream ended exactly on a frame boundary.
    Clean,
    /// The final frame was cut short (crash mid-append). `offset` is where
    /// the valid prefix ends.
    Torn {
        /// Byte offset of the start of the torn frame.
        offset: usize,
    },
    /// A frame failed its checksum or payload parse. `offset` is where the
    /// valid prefix ends.
    Corrupt {
        /// Byte offset of the start of the corrupt frame.
        offset: usize,
    },
}

impl WalTail {
    /// The byte length of the valid prefix for a stream of `total` bytes.
    pub fn valid_len(self, total: usize) -> usize {
        match self {
            WalTail::Clean => total,
            WalTail::Torn { offset } | WalTail::Corrupt { offset } => offset,
        }
    }
}

/// Why the frame at the front of a byte stream cannot be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BadFrame {
    /// The stream ends inside it.
    Torn,
    /// Its length is over the cap or its checksum fails.
    Corrupt,
}

/// Split the frame at the front of `bytes` off the rest: its checksummed
/// payload, and the bytes after it. A length field beyond `cap` is
/// corruption rather than an allocation request. The one frame reader:
/// WAL, snapshot and replication envelope bytes all pass through it.
pub(crate) fn split_frame(bytes: &[u8], cap: u32) -> Result<(&[u8], &[u8]), BadFrame> {
    let mut r = Reader::new(bytes);
    let (Some(len), Some(crc)) = (r.u32(), r.u32()) else {
        return Err(BadFrame::Torn);
    };
    if len > cap {
        return Err(BadFrame::Corrupt);
    }
    let payload = r.take(len as usize).ok_or(BadFrame::Torn)?;
    if crc32(payload) != crc {
        return Err(BadFrame::Corrupt);
    }
    Ok((payload, r.rest()))
}

/// Walk the frames of `bytes` in order, handing each record to `each` —
/// `Err(tag)` for a well-formed record whose pairing no longer validates.
/// Stops at the first torn or malformed frame, or at one `each` refuses
/// (reported as corrupt); never panics, whatever the input.
pub(crate) fn replay(bytes: &[u8], mut each: impl FnMut(Result<WalRecord, u8>) -> bool) -> WalTail {
    let mut rest = bytes;
    while !rest.is_empty() {
        let offset = bytes.len() - rest.len();
        let (payload, after) = match split_frame(rest, MAX_RECORD_LEN) {
            Ok(split) => split,
            Err(BadFrame::Torn) => return WalTail::Torn { offset },
            Err(BadFrame::Corrupt) => return WalTail::Corrupt { offset },
        };
        if !decode(payload).is_some_and(&mut each) {
            return WalTail::Corrupt { offset };
        }
        rest = after;
    }
    WalTail::Clean
}

/// Decode every clean frame from `bytes`, skipping any whose pairing no
/// longer validates. Stops at the first torn or corrupt frame; never
/// panics, whatever the input.
pub fn decode_stream(bytes: &[u8]) -> (Vec<WalRecord>, WalTail) {
    let mut records = Vec::new();
    let tail = replay(bytes, |rec| {
        records.extend(rec.ok());
        true
    });
    (records, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totp(digits: u32, step_secs: u64) -> TokenPairing {
        let params = TotpParams {
            digits,
            step_secs,
            ..TotpParams::default()
        };
        TokenPairing::Totp {
            totp: Totp::with_params(Secret::from_bytes(*b"12345678901234567890"), params),
            provenance: TotpProvenance::Soft,
            serial: None,
            last_step: None,
            drift_steps: 0,
        }
    }

    fn enroll(pairing: TokenPairing) -> Vec<u8> {
        WalRecord::Enroll {
            user: "alice".into(),
            pairing,
        }
        .encode_payload()
    }

    /// `payload` with the first occurrence of `from` overwritten by `to`.
    fn patched(mut payload: Vec<u8>, from: &[u8], to: &[u8]) -> Vec<u8> {
        let at = payload.windows(from.len()).position(|w| w == from).unwrap();
        payload[at..at + to.len()].copy_from_slice(to);
        payload
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Enroll {
                user: "alice".into(),
                pairing: totp(6, 30),
            },
            WalRecord::ValState {
                user: "alice".into(),
                last_step: Some(49_166_666),
                fail_count: 0,
                active: true,
            },
            WalRecord::SmsIssue {
                user: "bob".into(),
                code: "123456".into(),
                sent_at: 100,
                expires_at: 400,
            },
            WalRecord::SmsClear { user: "bob".into() },
            WalRecord::Audit {
                at: 100,
                user: "alice".into(),
                action: AuditAction::Validate,
                success: true,
                detail: "ok".into(),
            },
            WalRecord::Resync {
                user: "carol".into(),
                drift_steps: -240,
                last_step: 10,
            },
            WalRecord::Remove {
                user: "dave".into(),
            },
            WalRecord::ResumeConsume {
                user: "alice".into(),
                nonce: [7u8; 16],
                expires_at: 1_700_000_630,
            },
        ]
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 (the canonical IEEE check value).
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn frames_round_trip() {
        let mut stream = Vec::new();
        let records = sample_records();
        for r in &records {
            stream.extend_from_slice(&r.encode_frame());
        }
        let (decoded, tail) = decode_stream(&stream);
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded, records);
    }

    #[test]
    fn torn_tail_keeps_prefix() {
        let records = sample_records();
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(&r.encode_frame());
        }
        let boundary = records[0].encode_frame().len() + records[1].encode_frame().len();
        // Cut mid-way through the third frame.
        let cut = boundary + 3;
        let (decoded, tail) = decode_stream(&stream[..cut]);
        assert_eq!(decoded, records[..2].to_vec());
        assert_eq!(tail, WalTail::Torn { offset: boundary });
        assert_eq!(tail.valid_len(cut), boundary);
    }

    #[test]
    fn corrupt_frame_stops_decoding() {
        let records = sample_records();
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(&r.encode_frame());
        }
        let boundary = records[0].encode_frame().len();
        // Flip a payload bit in the second frame.
        stream[boundary + FRAME_HEADER_LEN + 2] ^= 0x10;
        let (decoded, tail) = decode_stream(&stream);
        assert_eq!(decoded, records[..1].to_vec());
        assert_eq!(tail, WalTail::Corrupt { offset: boundary });
    }

    #[test]
    fn absurd_length_is_corruption_not_allocation() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        stream.extend_from_slice(&[0u8; 64]);
        let (decoded, tail) = decode_stream(&stream);
        assert!(decoded.is_empty());
        assert_eq!(tail, WalTail::Corrupt { offset: 0 });
    }

    #[test]
    fn pairings_that_no_longer_validate_are_unusable_not_malformed() {
        let sms = TokenPairing::Sms {
            phone: PhoneNumber::parse("5125551234").unwrap(),
            pending: Some(PendingSmsCode {
                code: "111111".into(),
                sent_at: 5,
                expires_at: 305,
            }),
        };
        let payload = enroll(sms.clone());
        let record = WalRecord::Enroll {
            user: "alice".into(),
            pairing: sms,
        };
        assert_eq!(decode(&payload), Some(Ok(record)));
        let bad_phone = patched(payload, b"5125551234", b"51255512x4");
        assert_eq!(decode(&bad_phone), Some(Err(TAG_ENROLL)));

        let bad_alg = patched(enroll(totp(6, 30)), b"SHA1", b"SHA3");
        assert_eq!(decode(&bad_alg), Some(Err(TAG_ENROLL)));
        assert_eq!(WalRecord::decode_payload(&bad_alg), None);
    }

    #[test]
    fn out_of_range_totp_parameters_do_not_restore() {
        // A checksummed payload can still carry parameters no code can be
        // computed from: ten digits overflow the `10^digits` modulus, a
        // zero step divides by zero.
        let restores = |digits, step_secs| decode(&enroll(totp(digits, step_secs)));
        assert_eq!(restores(10, 30), Some(Err(TAG_ENROLL)));
        assert_eq!(restores(5, 30), Some(Err(TAG_ENROLL)));
        assert_eq!(restores(6, 0), Some(Err(TAG_ENROLL)));
        assert!(matches!(restores(9, 1), Some(Ok(_))));
    }
}
