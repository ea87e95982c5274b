//! Crash-point sweep: run a scripted admin + login sequence against a
//! durable server, then simulate a crash after **every individual WAL
//! record** (every frame boundary — between commits and, since one
//! operation's records share a commit, inside them: what a crash between
//! a commit's append and its sync can leave behind) and at **every byte
//! offset** (torn tails), and assert the recovery invariants at each
//! point:
//!
//! - a TOTP code the server accepted before the crash point never
//!   validates again on the recovered server (replay nullification
//!   cannot regress);
//! - an account the lockout policy deactivated before the crash point is
//!   still inactive after recovery, and an account staff explicitly
//!   reactivated is still active (lockout state cannot regress in either
//!   direction);
//! - recovery never panics, and a torn tail recovers by truncation so a
//!   second recovery sees a clean WAL.
//!
//! The same WAL bytes are swept through both the fault-injecting memory
//! backend and the real file backend, so the two implementations are held
//! to the identical contract.

use hpcmfa_otp::device::SoftToken;
use hpcmfa_otp::totp::TotpParams;
use hpcmfa_otpserver::durability::wal::FRAME_HEADER_LEN;
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig};
use hpcmfa_otpserver::sms::{PhoneNumber, TwilioSim};
use hpcmfa_otpserver::{recover, FileBackend, MemoryBackend, StorageBackend, ValidationOutcome};
use std::sync::Arc;

/// Facts the script establishes, each stamped with the durable WAL length
/// at acknowledgement time. A crash at byte `cut >= wal_len` must
/// preserve the fact; earlier crashes may legitimately predate it.
struct Facts {
    /// (user, code, validation time, wal_len): codes the server accepted.
    accepted: Vec<(String, String, u64, usize)>,
    /// (user, wal_len): accounts the lockout policy deactivated.
    locked: Vec<(String, usize)>,
    /// (user, wal_len): locked accounts staff reactivated.
    reset: Vec<(String, usize)>,
    /// Time after the last scripted operation.
    end_time: u64,
}

fn durable_server(backend: Arc<dyn StorageBackend>) -> Arc<LinotpServer> {
    LinotpServer::with_storage(
        TwilioSim::new(9),
        41,
        ServerConfig {
            // Snapshots off: the sweep wants every mutation in the WAL.
            snapshot_every_appends: u64::MAX,
            ..ServerConfig::default()
        },
        backend,
    )
    .expect("durable server recovers at startup")
}

/// The scripted sequence: enrollments of every pairing kind, a removal,
/// successful and failing logins, an SMS trigger, a lockout, an admin
/// resync, and a staff reset.
fn run_script(backend: &Arc<MemoryBackend>) -> Facts {
    let srv = durable_server(Arc::clone(backend) as Arc<dyn StorageBackend>);
    let wal_len = || backend.durable_wal().len();
    let mut t = 1_480_000_000u64;
    let mut facts = Facts {
        accepted: Vec::new(),
        locked: Vec::new(),
        reset: Vec::new(),
        end_time: 0,
    };

    let alice = SoftToken::new(srv.enroll_soft("alice", t), TotpParams::default());
    srv.enroll_soft("bob", t);
    srv.enroll_sms("carol", PhoneNumber::parse("5125550000").unwrap(), t);
    srv.enroll_static("trainee", t);
    srv.enroll_soft("mallory", t);
    srv.remove_pairing("mallory", t);

    // Good logins for alice interleaved with bad codes for bob.
    for _ in 0..6 {
        t += 30;
        let code = alice.displayed_code(t);
        assert_eq!(srv.validate("alice", &code, t), ValidationOutcome::Success);
        facts.accepted.push(("alice".into(), code, t, wal_len()));
        srv.validate("bob", "000000", t);
    }

    // An SMS code left outstanding (SmsIssue lands in the WAL).
    srv.trigger_sms("carol", t);

    // Hammer bob until the lockout policy deactivates him.
    while srv.status("bob", t).expect("bob exists").active {
        t += 3;
        srv.validate("bob", "000000", t);
    }
    facts.locked.push(("bob".into(), wal_len()));

    // Admin resync burns two consecutive alice codes.
    t += 30;
    let c1 = alice.displayed_code(t);
    let c2 = alice.displayed_code(t + 30);
    assert!(srv.resync("alice", &c1, &c2, t), "resync succeeds");
    facts.accepted.push(("alice".into(), c1, t, wal_len()));
    facts.accepted.push(("alice".into(), c2, t + 30, wal_len()));

    // Lock carol, then staff clear her: the reset must survive crashes.
    while srv.status("carol", t).expect("carol exists").active {
        t += 3;
        srv.validate("carol", "999999", t);
    }
    assert!(srv.reset_failcount("carol", t));
    facts.reset.push(("carol".into(), wal_len()));

    // A few more good logins after the reset.
    for _ in 0..3 {
        t += 30;
        let code = alice.displayed_code(t);
        assert_eq!(srv.validate("alice", &code, t), ValidationOutcome::Success);
        facts.accepted.push(("alice".into(), code, t, wal_len()));
    }

    facts.end_time = t + 30;
    facts
}

/// Byte offsets of every frame boundary in a clean WAL (crash points
/// "after every individual append").
fn frame_boundaries(wal: &[u8]) -> Vec<usize> {
    let mut out = vec![0usize];
    let mut pos = 0usize;
    while pos + FRAME_HEADER_LEN <= wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        pos += FRAME_HEADER_LEN + len;
        out.push(pos);
    }
    assert_eq!(*out.last().unwrap(), wal.len(), "WAL ends on a boundary");
    out
}

/// Assert the security invariants on a server recovered from the first
/// `cut` WAL bytes.
fn assert_invariants(srv: &LinotpServer, facts: &Facts, cut: usize) {
    for (user, code, at, acked) in &facts.accepted {
        if *acked <= cut {
            assert_ne!(
                srv.validate(user, code, *at),
                ValidationOutcome::Success,
                "code accepted for {user} before WAL byte {acked} replayed \
                 after a crash at byte {cut}"
            );
        }
    }
    for (user, acked) in &facts.locked {
        if *acked <= cut {
            assert!(
                !srv.status(user, facts.end_time)
                    .expect("user exists")
                    .active,
                "{user} was locked before WAL byte {acked} but is active \
                 after a crash at byte {cut}"
            );
        }
    }
    for (user, acked) in &facts.reset {
        if *acked <= cut {
            assert!(
                srv.status(user, facts.end_time)
                    .expect("user exists")
                    .active,
                "staff reset for {user} at WAL byte {acked} was lost by a \
                 crash at byte {cut}"
            );
        }
    }
}

#[test]
fn memory_backend_crash_after_every_append_preserves_invariants() {
    let backend = MemoryBackend::healthy();
    let facts = run_script(&backend);
    let wal = backend.durable_wal();
    assert!(!facts.accepted.is_empty() && !wal.is_empty());

    for &cut in &frame_boundaries(&wal) {
        let crashed = MemoryBackend::with_contents(wal[..cut].to_vec(), None);
        let srv = durable_server(crashed as Arc<dyn StorageBackend>);
        assert_invariants(&srv, &facts, cut);
    }
}

#[test]
fn file_backend_crash_after_every_append_preserves_invariants() {
    let backend = MemoryBackend::healthy();
    let facts = run_script(&backend);
    let wal = backend.durable_wal();

    let dir = std::env::temp_dir().join(format!("hpcmfa-crash-sweep-{}", std::process::id()));
    for &cut in &frame_boundaries(&wal) {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &wal[..cut]).unwrap();
        let file_backend = FileBackend::open(&dir).unwrap();
        let srv = durable_server(file_backend as Arc<dyn StorageBackend>);
        assert_invariants(&srv, &facts, cut);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_at_every_byte_recovers_by_truncation() {
    let backend = MemoryBackend::healthy();
    let facts = run_script(&backend);
    let wal = backend.durable_wal();
    let boundaries = frame_boundaries(&wal);

    for cut in 0..=wal.len() {
        let crashed: Arc<dyn StorageBackend> =
            MemoryBackend::with_contents(wal[..cut].to_vec(), None);
        let state = recover(&crashed).expect("torn tails recover by truncation, not error");

        // The valid prefix is the last frame boundary at or before the cut.
        let floor = *boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
        assert_eq!(
            crashed.wal_len(),
            floor as u64,
            "recovery truncated the backend to the valid prefix (cut {cut})"
        );
        assert_eq!(state.report.truncated_bytes as usize, cut - floor);

        // A second recovery sees a clean WAL.
        let again = recover(&crashed).expect("second recovery");
        assert!(again.report.tail_was_clean, "tail clean after truncation");
        assert_eq!(again.report.wal_records, state.report.wal_records);
    }
    // A byte cut recovers to exactly its floor boundary (asserted above),
    // and every boundary's invariants are covered by the frame-level
    // sweeps — so no per-byte server rebuild is needed here.
    let _ = facts;
}

#[test]
fn segmented_file_backend_crash_after_every_append_preserves_invariants() {
    let backend = MemoryBackend::healthy();
    let facts = run_script(&backend);
    let wal = backend.durable_wal();

    let dir = std::env::temp_dir().join(format!("hpcmfa-crash-sweep-seg-{}", std::process::id()));
    for &cut in &frame_boundaries(&wal) {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The same bytes, but spread across sealed segments plus an
        // active tail, as a rotating writer would have left them —
        // frames may straddle segment files; replay order must hold.
        let bytes = &wal[..cut];
        let chunk = 700usize;
        let mut seq = 0usize;
        let mut pos = 0usize;
        loop {
            let end = (pos + chunk).min(bytes.len());
            let name = if seq == 0 {
                "wal.log".to_string()
            } else {
                format!("wal.{seq}.log")
            };
            std::fs::write(dir.join(name), &bytes[pos..end]).unwrap();
            pos = end;
            seq += 1;
            if pos >= bytes.len() {
                break;
            }
        }
        let file_backend = FileBackend::open_with_rotation(&dir, chunk as u64).unwrap();
        let srv = durable_server(file_backend as Arc<dyn StorageBackend>);
        assert_invariants(&srv, &facts, cut);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot rename window: a crash after the tmp file was fully
/// written but before the rename (or before the directory entry was
/// fsynced) must leave the previous durable snapshot + WAL in force,
/// and reopening sweeps the orphaned tmp.
#[test]
fn snapshot_rename_window_is_swept_on_reopen() {
    let dir = std::env::temp_dir().join(format!("hpcmfa-crash-sweep-tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A compacting server: snapshots replace the WAL every few appends.
    let backend = FileBackend::open(&dir).unwrap();
    let srv = LinotpServer::with_storage(
        TwilioSim::new(9),
        41,
        ServerConfig {
            snapshot_every_appends: 8,
            ..ServerConfig::default()
        },
        backend as Arc<dyn StorageBackend>,
    )
    .expect("durable server recovers at startup");
    let mut t = 1_480_000_000u64;
    let alice = SoftToken::new(srv.enroll_soft("alice", t), TotpParams::default());
    let mut last = (String::new(), 0u64);
    for _ in 0..12 {
        t += 30;
        let code = alice.displayed_code(t);
        assert_eq!(srv.validate("alice", &code, t), ValidationOutcome::Success);
        last = (code, t);
    }
    assert!(
        dir.join("snapshot.bin").exists(),
        "compaction produced a durable snapshot"
    );
    drop(srv);

    // Crash inside the rename window: the next snapshot reached the tmp
    // name but never replaced the durable one.
    std::fs::write(dir.join("snapshot.bin.tmp"), b"half-written snapshot").unwrap();
    let backend = FileBackend::open(&dir).unwrap();
    assert!(
        !dir.join("snapshot.bin.tmp").exists(),
        "reopen sweeps the orphaned tmp"
    );
    let srv = durable_server(backend as Arc<dyn StorageBackend>);
    let (code, at) = last;
    assert_ne!(
        srv.validate("alice", &code, at),
        ValidationOutcome::Success,
        "replay nullification survives the rename-window crash"
    );
    let fresh = alice.displayed_code(at + 300);
    assert_eq!(
        srv.validate("alice", &fresh, at + 300),
        ValidationOutcome::Success,
        "the recovered server keeps serving"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
