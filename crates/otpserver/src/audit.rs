//! The audit log (§3.1: "Admins can view user pairings, re-synchronize
//! tokens, access audit logs, and clear failure counters"; §3.2: "Upon
//! validation, an audit log entry is created within the LinOTP database").
//!
//! A row is kept as the [`WalRecord::Audit`] frame that carries it to the
//! WAL: encoded once, when the operation stages it, checksummed once, and
//! copied as it stands into every snapshot. The readers decode rows back
//! to [`AuditEntry`] on demand. Frames enter the ring from this module's
//! encoder only (recovery decodes what it reads from disk first), so the
//! ring never holds bytes that fail to parse.
//!
//! The log is bounded: a configurable retention cap gives it ring
//! semantics — once full, each append evicts the oldest entry and bumps a
//! dropped-entry counter — so week-long simulations can't grow it without
//! bound. `prune_older_than` keeps its time-based retention behaviour.
//!
//! [`WalRecord::Audit`]: crate::durability::WalRecord::Audit

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::durability::wal::{crc32, FRAME_HEADER_LEN, TAG_AUDIT};
use hpcmfa_telemetry::TraceId;
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default retention cap: large enough that no simulation in this repo
/// evicts, small enough to bound a runaway stream.
pub(crate) const DEFAULT_AUDIT_CAP: usize = 1_000_000;

/// The longest user name or detail text a row keeps, in bytes; a longer
/// one is cut at a character boundary. Two such fields still frame far
/// under the WAL's record cap, so every row replays.
pub(crate) const MAX_FIELD_LEN: usize = 1 << 16;

/// Bytes per ring block. Frames are packed whole into blocks of this size
/// (a longer frame gets a block of its own), so a row never moves once
/// written, and the ring's slack is at most one part-filled block.
const BLOCK_LEN: usize = 16 * 1024;

/// Staged frame bytes a [`Staged`] holds inline: a validate's row and its
/// lockout's, trace ids included, for user names up to ≈ 60 bytes.
const STAGED_INLINE: usize = 256;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditAction {
    /// A token-code validation attempt.
    Validate,
    /// An SMS send was triggered.
    SmsTriggered,
    /// An SMS send was suppressed because a code was already active.
    SmsSuppressed,
    /// A token was enrolled.
    Enroll,
    /// A token was removed.
    Remove,
    /// A token was resynchronized.
    Resync,
    /// A failure counter was cleared by staff.
    ResetFailCount,
    /// The account was deactivated by the lockout policy.
    Lockout,
}

impl AuditAction {
    /// Stable label for serialization.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AuditAction::Validate => "validate",
            AuditAction::SmsTriggered => "sms_triggered",
            AuditAction::SmsSuppressed => "sms_suppressed",
            AuditAction::Enroll => "enroll",
            AuditAction::Remove => "remove",
            AuditAction::Resync => "resync",
            AuditAction::ResetFailCount => "reset_failcount",
            AuditAction::Lockout => "lockout",
        }
    }

    /// Stable on-disk tag.
    fn tag(self) -> u8 {
        match self {
            AuditAction::Validate => 0,
            AuditAction::SmsTriggered => 1,
            AuditAction::SmsSuppressed => 2,
            AuditAction::Enroll => 3,
            AuditAction::Remove => 4,
            AuditAction::Resync => 5,
            AuditAction::ResetFailCount => 6,
            AuditAction::Lockout => 7,
        }
    }

    /// Inverse of [`AuditAction::tag`].
    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => AuditAction::Validate,
            1 => AuditAction::SmsTriggered,
            2 => AuditAction::SmsSuppressed,
            3 => AuditAction::Enroll,
            4 => AuditAction::Remove,
            5 => AuditAction::Resync,
            6 => AuditAction::ResetFailCount,
            7 => AuditAction::Lockout,
            _ => return None,
        })
    }
}

/// One audit entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Unix time of the event.
    pub at: u64,
    /// Account involved.
    pub username: String,
    /// Event type.
    pub action: AuditAction,
    /// Whether the operation succeeded.
    pub success: bool,
    /// Free-form detail (never contains secrets or token codes).
    pub detail: String,
}

// ---------------------------------------------------------------------
// The row codec
// ---------------------------------------------------------------------

/// A row as the encoder takes it. The detail is written as `detail`, then
/// ` trace=<16 hex digits>` when the operation rode in on a trace (just
/// `trace=…` when `detail` is empty), so no string is built for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewRow<'a> {
    pub(crate) at: u64,
    pub(crate) user: &'a str,
    pub(crate) action: AuditAction,
    pub(crate) success: bool,
    pub(crate) detail: &'a str,
    pub(crate) trace: Option<TraceId>,
}

/// `s` cut to at most [`MAX_FIELD_LEN`] bytes, at a character boundary.
fn clip(s: &str) -> &str {
    let mut end = s.len().min(MAX_FIELD_LEN);
    while !s.is_char_boundary(end) {
        end = end.saturating_sub(1);
    }
    s.get(..end).unwrap_or_default()
}

/// A field length as its `u32` prefix. Every field is clipped first, so
/// the fallback is never taken.
fn len32(len: usize) -> [u8; 4] {
    u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes()
}

/// Bytes of `trace=<16 hex digits>`.
const TRACE_LEN: usize = "trace=".len() + 16;

/// `v` as sixteen lowercase hex digits — `TraceId`'s `Display`.
fn hex16(v: u64) -> [u8; 16] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let digit = |n: u8| DIGITS.get(usize::from(n)).copied().unwrap_or(b'0');
    let mut out = [0u8; 16];
    for (pair, byte) in out.chunks_exact_mut(2).zip(v.to_be_bytes()) {
        pair.copy_from_slice(&[digit(byte >> 4), digit(byte & 0x0f)]);
    }
    out
}

/// A cursor writing consecutive fields into a buffer sized for them.
struct Cursor<'b>(&'b mut [u8]);

impl Cursor<'_> {
    fn put(&mut self, bytes: &[u8]) {
        // Sized by `payload_len`, so the split always succeeds.
        if let Some((head, rest)) = std::mem::take(&mut self.0).split_at_mut_checked(bytes.len()) {
            head.copy_from_slice(bytes);
            self.0 = rest;
        }
    }
}

impl NewRow<'_> {
    /// The trace suffix and whether a space separates it from the text.
    fn trace_suffix(&self) -> Option<(bool, [u8; 16])> {
        let text = clip(self.detail);
        self.trace.map(|t| (!text.is_empty(), hex16(t.as_u64())))
    }

    fn detail_len(&self) -> usize {
        let suffix = match self.trace_suffix() {
            Some((spaced, _)) => usize::from(spaced).saturating_add(TRACE_LEN),
            None => 0,
        };
        clip(self.detail).len().saturating_add(suffix)
    }

    /// Bytes of the payload: tag, time, user, action, success, detail.
    fn payload_len(&self) -> usize {
        const FIXED: usize = 1 + 8 + 4 + 1 + 1 + 4;
        FIXED
            .saturating_add(clip(self.user).len())
            .saturating_add(self.detail_len())
    }

    /// Bytes of the whole frame.
    pub(crate) fn frame_len(&self) -> usize {
        self.payload_len().saturating_add(FRAME_HEADER_LEN)
    }

    /// Write the payload into `out`, which is [`NewRow::payload_len`]
    /// bytes long.
    fn write_payload(&self, out: &mut [u8]) {
        let user = clip(self.user);
        let mut c = Cursor(out);
        c.put(&[TAG_AUDIT]);
        c.put(&self.at.to_le_bytes());
        c.put(&len32(user.len()));
        c.put(user.as_bytes());
        c.put(&[self.action.tag(), u8::from(self.success)]);
        c.put(&len32(self.detail_len()));
        c.put(clip(self.detail).as_bytes());
        if let Some((spaced, hex)) = self.trace_suffix() {
            if spaced {
                c.put(b" ");
            }
            c.put(b"trace=");
            c.put(&hex);
        }
    }

    /// Write the frame — header, then payload — into `out`, which is
    /// [`NewRow::frame_len`] bytes long.
    pub(crate) fn write_frame(&self, out: &mut [u8]) {
        let Some((header, payload)) = out.split_at_mut_checked(FRAME_HEADER_LEN) else {
            return;
        };
        self.write_payload(payload);
        let mut c = Cursor(header);
        c.put(&len32(payload.len()));
        c.put(&crc32(payload).to_le_bytes());
    }

    /// Append the payload alone to `out` (a WAL frame encoder adds the
    /// header around it).
    pub(crate) fn payload_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start.saturating_add(self.payload_len()), 0);
        if let Some(payload) = out.get_mut(start..) {
            self.write_payload(payload);
        }
    }

    /// Append the frame to `out`.
    pub(crate) fn frame_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start.saturating_add(self.frame_len()), 0);
        if let Some(frame) = out.get_mut(start..) {
            self.write_frame(frame);
        }
    }
}

impl<'a> From<&'a AuditEntry> for NewRow<'a> {
    fn from(e: &'a AuditEntry) -> Self {
        NewRow {
            at: e.at,
            user: &e.username,
            action: e.action,
            success: e.success,
            detail: &e.detail,
            trace: None,
        }
    }
}

/// A row read back from its payload, borrowing its strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowView<'a> {
    pub(crate) at: u64,
    pub(crate) user: &'a str,
    pub(crate) action: AuditAction,
    pub(crate) success: bool,
    pub(crate) detail: &'a str,
}

/// The next `N` bytes of `r`, consuming them.
fn take<const N: usize>(r: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = r.split_first_chunk::<N>()?;
    *r = rest;
    Some(*head)
}

/// A `u32`-length-prefixed UTF-8 string from the front of `r`.
fn take_str<'a>(r: &mut &'a [u8]) -> Option<&'a str> {
    let len = usize::try_from(u32::from_le_bytes(take(r)?)).ok()?;
    let (s, rest) = r.split_at_checked(len)?;
    *r = rest;
    std::str::from_utf8(s).ok()
}

impl<'a> RowView<'a> {
    /// Parse a [`WalRecord::Audit`](crate::durability::WalRecord::Audit)
    /// payload, tag byte first: `None` unless it is exactly one
    /// well-formed row. Never panics, whatever the bytes.
    pub(crate) fn parse(payload: &'a [u8]) -> Option<Self> {
        let mut r = payload;
        if take::<1>(&mut r)? != [TAG_AUDIT] {
            return None;
        }
        let at = u64::from_le_bytes(take(&mut r)?);
        let user = take_str(&mut r)?;
        let [action, success] = take::<2>(&mut r)?;
        let action = AuditAction::from_tag(action)?;
        let success = match success {
            0 => false,
            1 => true,
            _ => return None,
        };
        let detail = take_str(&mut r)?;
        r.is_empty().then_some(RowView {
            at,
            user,
            action,
            success,
            detail,
        })
    }

    /// The owned entry.
    pub(crate) fn to_entry(self) -> AuditEntry {
        AuditEntry {
            at: self.at,
            username: self.user.to_string(),
            action: self.action,
            success: self.success,
            detail: self.detail.to_string(),
        }
    }
}

/// The length of the frame at the front of `bytes`, header included.
fn frame_len(bytes: &[u8]) -> Option<usize> {
    let len = usize::try_from(u32::from_le_bytes(*bytes.first_chunk::<4>()?)).ok()?;
    len.checked_add(FRAME_HEADER_LEN)
}

/// The frames of a run of whole frames, in order. The ring's and a
/// [`Staged`]'s bytes are written by [`NewRow`] alone, so their checksums
/// are not checked again.
struct Frames<'a>(&'a [u8]);

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (frame, rest) = self.0.split_at_checked(frame_len(self.0)?)?;
        self.0 = rest;
        Some(frame)
    }
}

/// The row a ring frame holds.
fn row_of(frame: &[u8]) -> Option<RowView<'_>> {
    RowView::parse(frame.get(FRAME_HEADER_LEN..)?)
}

// ---------------------------------------------------------------------
// Staging
// ---------------------------------------------------------------------

/// The frames of the rows one operation has written and not yet put in
/// the ring: inline up to [`STAGED_INLINE`] bytes, so staging allocates
/// nothing, and on the heap past that.
pub(crate) struct Staged {
    inline: [u8; STAGED_INLINE],
    len: usize,
    /// Every staged frame, once they outgrow `inline`.
    spill: Vec<u8>,
}

impl Default for Staged {
    fn default() -> Self {
        Staged {
            inline: [0; STAGED_INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl Staged {
    /// Encode `row` after the rows already staged, and return its frame.
    pub(crate) fn stage(&mut self, row: &NewRow<'_>) -> &[u8] {
        let len = row.frame_len();
        let end = self.len.saturating_add(len);
        let frame = if self.spill.is_empty() && end <= STAGED_INLINE {
            let start = std::mem::replace(&mut self.len, end);
            self.inline.get_mut(start..end).unwrap_or_default()
        } else {
            if self.spill.is_empty() {
                let staged = self.inline.get(..self.len).unwrap_or_default();
                self.spill.extend_from_slice(staged);
            }
            let start = self.spill.len();
            self.spill.resize(start.saturating_add(len), 0);
            self.spill.get_mut(start..).unwrap_or_default()
        };
        row.write_frame(frame);
        frame
    }

    /// Every staged frame, in order.
    pub(crate) fn frames(&self) -> &[u8] {
        if self.spill.is_empty() {
            self.inline.get(..self.len).unwrap_or_default()
        } else {
            &self.spill
        }
    }

    /// Forget every staged row.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

// ---------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------

/// Whole frames, oldest first, packed into blocks.
struct Ring {
    blocks: VecDeque<Vec<u8>>,
    /// Bytes at the front of the first block that eviction has released.
    head: usize,
    rows: usize,
    cap: usize,
    dropped: u64,
    /// The last block eviction emptied, kept for the next one the tail
    /// needs: a full ring allocates nothing.
    spare: Option<Vec<u8>>,
}

impl Ring {
    fn with_cap(cap: usize) -> Self {
        Ring {
            blocks: VecDeque::new(),
            head: 0,
            rows: 0,
            cap,
            dropped: 0,
            spare: None,
        }
    }

    /// The retained frames, oldest first.
    fn frames(&self) -> impl Iterator<Item = &[u8]> {
        self.live_blocks().flat_map(Frames)
    }

    /// The retained rows, oldest first.
    fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        self.frames().filter_map(row_of)
    }

    /// Each block's retained bytes, oldest first: every frame, back to
    /// back.
    fn live_blocks(&self) -> impl Iterator<Item = &[u8]> {
        let mut head = self.head;
        self.blocks
            .iter()
            .map(move |block| block.get(std::mem::take(&mut head)..).unwrap_or_default())
    }

    /// Append a frame of `len` bytes that `write` fills in, evicting the
    /// oldest rows first if the ring is at cap.
    fn push(&mut self, len: usize, write: impl FnOnce(&mut [u8])) {
        if self.cap == 0 {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        while self.rows >= self.cap {
            self.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        let fits = self
            .blocks
            .back()
            .is_some_and(|b| b.capacity().saturating_sub(b.len()) >= len);
        if !fits {
            let block = match self.spare.take() {
                Some(spare) if spare.capacity() >= len => spare,
                _ => Vec::with_capacity(len.max(BLOCK_LEN)),
            };
            self.blocks.push_back(block);
        }
        let Some(block) = self.blocks.back_mut() else {
            return;
        };
        let start = block.len();
        block.resize(start.saturating_add(len), 0);
        if let Some(frame) = block.get_mut(start..) {
            write(frame);
        }
        self.rows = self.rows.saturating_add(1);
    }

    /// Release the oldest row.
    fn pop_front(&mut self) {
        let only = self.blocks.len() == 1;
        let Some(front) = self.blocks.front_mut() else {
            self.rows = 0;
            return;
        };
        let at = front.get(self.head..).unwrap_or_default();
        // A frame that cannot be read (never: the ring writes them all)
        // releases the rest of its block.
        let next = frame_len(at).map_or(front.len(), |len| self.head.saturating_add(len));
        self.rows = self.rows.saturating_sub(1);
        if next < front.len() {
            self.head = next;
            return;
        }
        self.head = 0;
        if only {
            front.clear();
        } else if let Some(mut block) = self.blocks.pop_front() {
            block.clear();
            if block.capacity() == BLOCK_LEN {
                self.spare = Some(block);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------

struct Shared {
    ring: RwLock<Ring>,
    /// The length of the last snapshot the ring was copied into: the next
    /// one reserves that much at once.
    snapshot_len: AtomicUsize,
}

/// Bounded, thread-safe audit log with ring eviction. Clone shares state.
#[derive(Clone)]
pub struct AuditLog {
    inner: Arc<Shared>,
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::with_cap(DEFAULT_AUDIT_CAP)
    }
}

impl AuditLog {
    /// New empty log retaining at most `cap` entries (0 retains nothing).
    pub fn with_cap(cap: usize) -> Self {
        AuditLog {
            inner: Arc::new(Shared {
                ring: RwLock::new(Ring::with_cap(cap)),
                snapshot_len: AtomicUsize::new(0),
            }),
        }
    }

    /// Entries evicted by the ring cap since creation (time-based pruning
    /// does not count — that is deliberate retention, not overflow).
    pub fn dropped(&self) -> u64 {
        self.inner.ring.read().dropped
    }

    /// Append an entry, evicting the oldest if the log is at cap.
    pub fn record(
        &self,
        at: u64,
        username: &str,
        action: AuditAction,
        success: bool,
        detail: &str,
    ) {
        let row = NewRow {
            at,
            user: username,
            action,
            success,
            detail,
            trace: None,
        };
        let mut ring = self.inner.ring.write();
        ring.push(row.frame_len(), |frame| row.write_frame(frame));
    }

    /// Append the rows of `frames`, frames this module encoded (a
    /// [`Staged`]'s), each as [`AuditLog::record`] would.
    pub(crate) fn push_frames(&self, frames: &[u8]) {
        if frames.is_empty() {
            return;
        }
        let mut ring = self.inner.ring.write();
        for frame in Frames(frames) {
            ring.push(frame.len(), |dst| dst.copy_from_slice(frame));
        }
    }

    /// All entries for `username`.
    pub fn for_user(&self, username: &str) -> Vec<AuditEntry> {
        let ring = self.inner.ring.read();
        let rows = ring.rows().filter(|r| r.user == username);
        rows.map(RowView::to_entry).collect()
    }

    /// Entries in `[from, to)`.
    pub fn in_range(&self, from: u64, to: u64) -> Vec<AuditEntry> {
        let ring = self.inner.ring.read();
        let rows = ring.rows().filter(|r| r.at >= from && r.at < to);
        rows.map(RowView::to_entry).collect()
    }

    /// Count of entries matching `action` and `success`.
    pub fn count(&self, action: AuditAction, success: bool) -> usize {
        let ring = self.inner.ring.read();
        ring.rows()
            .filter(|r| r.action == action && r.success == success)
            .count()
    }

    /// Drop entries older than `cutoff` (retention rotation for long
    /// simulations; production would archive instead).
    pub fn prune_older_than(&self, cutoff: u64) {
        let mut ring = self.inner.ring.write();
        if ring.rows().all(|r| r.at >= cutoff) {
            return;
        }
        let mut kept = Ring::with_cap(ring.cap);
        kept.dropped = ring.dropped;
        let frames = ring
            .frames()
            .filter(|f| row_of(f).is_some_and(|r| r.at >= cutoff));
        for frame in frames {
            kept.push(frame.len(), |dst| dst.copy_from_slice(frame));
        }
        *ring = kept;
    }

    /// Decode all retained entries in order.
    pub fn export_all(&self) -> Vec<AuditEntry> {
        let ring = self.inner.ring.read();
        ring.rows().map(RowView::to_entry).collect()
    }

    /// Visit all retained entries in order, each decoded for the visit;
    /// returns the dropped counter as it stood for that visit. The log
    /// stays read-locked throughout, so `f` must not call back into it.
    pub fn for_each(&self, mut f: impl FnMut(&AuditEntry)) -> u64 {
        let ring = self.inner.ring.read();
        ring.rows().for_each(|r| f(&r.to_entry()));
        ring.dropped
    }

    /// Append every retained frame to `out` as it stands — the audit
    /// section of a snapshot — and say how many rows that was and what
    /// the dropped counter stood at.
    pub(crate) fn copy_frames_into(&self, out: &mut Vec<u8>) -> (usize, u64) {
        let ring = self.inner.ring.read();
        ring.live_blocks()
            .for_each(|bytes| out.extend_from_slice(bytes));
        (ring.rows, ring.dropped)
    }

    /// The length of the last snapshot this log was copied into (0 before
    /// the first).
    pub(crate) fn snapshot_len(&self) -> usize {
        self.inner.snapshot_len.load(Ordering::Relaxed)
    }

    /// Note the length of the snapshot just made.
    pub(crate) fn note_snapshot_len(&self, len: usize) {
        self.inner.snapshot_len.store(len, Ordering::Relaxed);
    }

    /// Replace the log's contents and dropped counter (crash recovery).
    /// The cap is preserved; if the recovered set exceeds it, the oldest
    /// entries are evicted exactly as live appends would have.
    pub(crate) fn load(&self, entries: Vec<AuditEntry>, dropped: u64) {
        let mut ring = self.inner.ring.write();
        let mut loaded = Ring::with_cap(ring.cap);
        loaded.dropped = dropped;
        for entry in &entries {
            let row = NewRow::from(entry);
            loaded.push(row.frame_len(), |frame| row.write_frame(frame));
        }
        *ring = loaded;
    }

    /// Drop every entry (simulated crash wipes the in-memory image). The
    /// dropped counter is reset too — recovery restores it from the
    /// snapshot seal.
    pub(crate) fn clear(&self) {
        let mut ring = self.inner.ring.write();
        *ring = Ring::with_cap(ring.cap);
    }

    /// Total retained entries.
    pub fn len(&self) -> usize {
        self.inner.ring.read().rows
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    const ACTIONS: [AuditAction; 8] = [
        AuditAction::Validate,
        AuditAction::SmsTriggered,
        AuditAction::SmsSuppressed,
        AuditAction::Enroll,
        AuditAction::Remove,
        AuditAction::Resync,
        AuditAction::ResetFailCount,
        AuditAction::Lockout,
    ];

    #[test]
    fn record_and_query() {
        let log = AuditLog::with_cap(DEFAULT_AUDIT_CAP);
        log.record(10, "alice", AuditAction::Validate, true, "totp ok");
        log.record(20, "alice", AuditAction::Validate, false, "wrong code");
        log.record(30, "bob", AuditAction::Enroll, true, "soft");
        assert_eq!(log.len(), 3);
        assert_eq!(log.for_user("alice").len(), 2);
        assert_eq!(log.in_range(15, 35).len(), 2);
        assert_eq!(log.count(AuditAction::Validate, true), 1);
        assert_eq!(log.count(AuditAction::Validate, false), 1);
        assert_eq!(
            log.for_user("bob"),
            vec![AuditEntry {
                at: 30,
                username: "bob".into(),
                action: AuditAction::Enroll,
                success: true,
                detail: "soft".into(),
            }]
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AuditAction::Validate.label(), "validate");
        assert_eq!(AuditAction::Lockout.label(), "lockout");
    }

    #[test]
    fn audit_tags_round_trip() {
        for action in ACTIONS {
            assert_eq!(AuditAction::from_tag(action.tag()), Some(action));
        }
        assert_eq!(AuditAction::from_tag(200), None);
    }

    #[test]
    fn a_trace_is_written_into_the_detail() {
        let trace = TraceId::from_u64(0xab);
        let row = |detail| NewRow {
            at: 5,
            user: "alice",
            action: AuditAction::Validate,
            success: true,
            detail,
            trace: Some(trace),
        };
        let mut staged = Staged::default();
        staged.stage(&row("ok"));
        staged.stage(&row(""));
        let log = AuditLog::with_cap(4);
        log.push_frames(staged.frames());
        let details: Vec<String> = log.export_all().into_iter().map(|e| e.detail).collect();
        assert_eq!(
            details,
            [format!("ok trace={trace}"), format!("trace={trace}")]
        );
    }

    #[test]
    fn a_staged_frame_is_the_wal_records_frame() {
        for (detail, trace) in [
            ("ok", None),
            ("ok", Some(7)),
            ("", Some(u64::MAX)),
            ("", None),
        ] {
            let trace = trace.map(TraceId::from_u64);
            let row = NewRow {
                at: 1_700_000_000,
                user: "alice",
                action: AuditAction::Lockout,
                success: true,
                detail,
                trace,
            };
            let frame = Staged::default().stage(&row).to_vec();
            let detail = match trace {
                Some(t) if detail.is_empty() => format!("trace={t}"),
                Some(t) => format!("{detail} trace={t}"),
                None => detail.to_string(),
            };
            let record = crate::durability::WalRecord::Audit {
                at: row.at,
                user: row.user.into(),
                action: row.action,
                success: row.success,
                detail,
            };
            assert_eq!(frame, record.encode_frame());
        }
    }

    #[test]
    fn staging_spills_past_its_inline_bytes_in_order() {
        let long = "x".repeat(STAGED_INLINE);
        let mut staged = Staged::default();
        let mut want = Vec::new();
        for (i, user) in ["a", long.as_str(), "b"].into_iter().enumerate() {
            let row = NewRow {
                at: i as u64,
                user,
                action: AuditAction::Remove,
                success: false,
                detail: "",
                trace: None,
            };
            let frame = staged.stage(&row).to_vec();
            assert_eq!(frame.len(), row.frame_len());
            want.extend_from_slice(&frame);
        }
        assert_eq!(staged.frames(), &want[..]);
        let log = AuditLog::with_cap(DEFAULT_AUDIT_CAP);
        log.push_frames(staged.frames());
        let users: Vec<String> = log.export_all().into_iter().map(|e| e.username).collect();
        assert_eq!(users, ["a", long.as_str(), "b"]);
        staged.clear();
        assert!(staged.frames().is_empty());
    }

    #[test]
    fn overlong_fields_are_clipped_at_a_char_boundary() {
        let name = "é".repeat(MAX_FIELD_LEN);
        let log = AuditLog::with_cap(DEFAULT_AUDIT_CAP);
        log.record(1, &name, AuditAction::Enroll, true, &name);
        let row = &log.export_all()[0];
        assert_eq!(row.username.len(), MAX_FIELD_LEN);
        assert!(name.starts_with(&row.username));
        assert_eq!(row.detail, row.username);
    }

    #[test]
    fn ring_cap_evicts_oldest_and_counts_drops() {
        let log = AuditLog::with_cap(3);
        for i in 0..5 {
            log.record(i, "u", AuditAction::Validate, true, "");
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let entries = log.export_all();
        assert_eq!(entries.first().unwrap().at, 2, "oldest evicted first");
        assert_eq!(entries.last().unwrap().at, 4);
    }

    #[test]
    fn a_ring_across_many_blocks_keeps_order_and_reuses_its_blocks() {
        let log = AuditLog::with_cap(1000);
        let detail = "d".repeat(100);
        for i in 0..5000u64 {
            log.record(i, "user", AuditAction::Validate, i % 3 == 0, &detail);
        }
        let ats: Vec<u64> = log.export_all().iter().map(|e| e.at).collect();
        assert_eq!(ats, (4000..5000).collect::<Vec<_>>());
        assert_eq!(log.dropped(), 4000);
        let ring = log.inner.ring.read();
        assert!(ring.blocks.len() <= 1000 * 150 / BLOCK_LEN + 2);
        let mut copied = Vec::new();
        drop(ring);
        assert_eq!(log.copy_frames_into(&mut copied), (1000, 4000));
        assert_eq!(Frames(&copied).count(), 1000);
    }

    #[test]
    fn prune_keeps_time_retention_and_does_not_count_as_dropped() {
        let log = AuditLog::with_cap(10);
        for i in 0..5 {
            log.record(i * 10, "u", AuditAction::Validate, true, "");
        }
        log.prune_older_than(25);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.export_all()[0].at, 30);
    }

    #[test]
    fn load_restores_and_respects_cap() {
        let log = AuditLog::with_cap(2);
        let entries: Vec<AuditEntry> = (0..4)
            .map(|i| AuditEntry {
                at: i,
                username: "u".into(),
                action: AuditAction::Validate,
                success: true,
                detail: String::new(),
            })
            .collect();
        log.load(entries, 7);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 9, "7 prior + 2 evicted on load");
        assert_eq!(log.export_all().first().unwrap().at, 2);
    }

    #[test]
    fn a_zero_cap_retains_nothing_and_counts_every_row() {
        let log = AuditLog::with_cap(0);
        log.record(1, "u", AuditAction::Validate, true, "");
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1);
        let entry = AuditEntry {
            at: 2,
            username: "u".into(),
            action: AuditAction::Validate,
            success: true,
            detail: String::new(),
        };
        log.load(vec![entry.clone(), entry], 3);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 5, "3 prior + 2 on load");
    }

    #[test]
    fn concurrent_appends() {
        let log = AuditLog::with_cap(DEFAULT_AUDIT_CAP);
        let mut handles = Vec::new();
        for t in 0..4 {
            let l = log.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    l.record(i, &format!("u{t}"), AuditAction::Validate, true, "");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 400);
    }
}
