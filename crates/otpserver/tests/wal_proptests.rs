//! Property tests for the WAL record codec: encode/decode round trips,
//! and the two corruption properties recovery leans on — decoding any
//! truncated or bit-flipped stream never panics, and never yields a
//! record that was not cleanly framed in the original stream (a damaged
//! frame always fails its checksum instead of parsing into something
//! plausible).

use hpcmfa_crypto::HashAlg;
use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::{Totp, TotpParams};
use hpcmfa_otpserver::audit::AuditAction;
use hpcmfa_otpserver::durability::wal::{crc32, decode_stream, WalRecord, WalTail};
use hpcmfa_otpserver::sms::PhoneNumber;
use hpcmfa_otpserver::store::{PendingSmsCode, TokenPairing, TotpProvenance};
use hpcmfa_otpserver::{MemoryBackend, Persistence, StorageBackend};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_user() -> BoxedStrategy<String> {
    "[a-z][a-z0-9_.-]{0,14}".boxed()
}

fn arb_opt_step() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), (0u64..50_000_000).prop_map(Some)].boxed()
}

fn arb_pairing() -> BoxedStrategy<TokenPairing> {
    let serial = prop_oneof![Just(None), "[A-Z]{2,4}-[0-9]{4}".prop_map(Some),];
    let totp = (
        prop::collection::vec(any::<u8>(), 10..33),
        (6u32..9, 30u64..61, 0u64..1_000),
        "SHA1|SHA256|SHA512",
        (any::<bool>(), serial, arb_opt_step(), -3i64..4),
    )
        .prop_map(
            |(secret, (digits, step_secs, t0), alg, (hard, serial, last_step, drift_steps))| {
                let params = TotpParams {
                    digits,
                    step_secs,
                    t0,
                    alg: HashAlg::parse(&alg).unwrap(),
                };
                TokenPairing::Totp {
                    totp: Totp::with_params(Secret::from_bytes(secret), params),
                    provenance: if hard {
                        TotpProvenance::Hard
                    } else {
                        TotpProvenance::Soft
                    },
                    serial,
                    last_step,
                    drift_steps,
                }
            },
        );
    let pending = prop_oneof![
        Just(None),
        ("[0-9]{6}", 0u64..1_000_000, 0u64..1_000_000).prop_map(
            |(code, sent_at, expires_at)| Some(PendingSmsCode {
                code,
                sent_at,
                expires_at
            })
        ),
    ];
    let sms = ("[0-9]{10}", pending).prop_map(|(phone, pending)| TokenPairing::Sms {
        phone: PhoneNumber::parse(&phone).unwrap(),
        pending,
    });
    let fixed = "[0-9]{8}".prop_map(|code| TokenPairing::Static { code });
    prop_oneof![totp, sms, fixed].boxed()
}

fn arb_record() -> BoxedStrategy<WalRecord> {
    prop_oneof![
        (arb_user(), arb_pairing()).prop_map(|(user, pairing)| WalRecord::Enroll { user, pairing }),
        arb_user().prop_map(|user| WalRecord::Remove { user }),
        (arb_user(), arb_opt_step(), 0u32..25, any::<bool>()).prop_map(
            |(user, last_step, fail_count, active)| WalRecord::ValState {
                user,
                last_step,
                fail_count,
                active,
            }
        ),
        (arb_user(), -5i64..6, 0u64..50_000_000).prop_map(|(user, drift_steps, last_step)| {
            WalRecord::Resync {
                user,
                drift_steps,
                last_step,
            }
        }),
        (arb_user(), "[0-9]{6}", 0u64..1_000_000, 0u64..1_000_000).prop_map(
            |(user, code, sent_at, expires_at)| WalRecord::SmsIssue {
                user,
                code,
                sent_at,
                expires_at,
            }
        ),
        arb_user().prop_map(|user| WalRecord::SmsClear { user }),
        (
            (
                0u64..2_000_000_000,
                arb_user(),
                prop::sample::select(vec![
                    AuditAction::Validate,
                    AuditAction::SmsTriggered,
                    AuditAction::SmsSuppressed,
                    AuditAction::Enroll,
                    AuditAction::Remove,
                    AuditAction::Resync,
                    AuditAction::ResetFailCount,
                    AuditAction::Lockout,
                ])
            ),
            (any::<bool>(), "\\PC{0,24}")
        )
            .prop_map(|((at, user, action), (success, detail))| WalRecord::Audit {
                at,
                user,
                action,
                success,
                detail,
            }),
        (arb_user(), arb_pairing(), 0u32..25, any::<bool>()).prop_map(
            |(user, pairing, fail_count, active)| WalRecord::SnapshotUser {
                user,
                pairing,
                fail_count,
                active,
            }
        ),
        (0u64..5_000, 0u64..5_000, 0u64..5_000, 0u64..5_000).prop_map(
            |(users, audits, audit_dropped, resumes)| WalRecord::SnapshotSeal {
                users,
                audits,
                audit_dropped,
                resumes,
            }
        ),
        (arb_user(), any::<[u8; 16]>(), 0u64..2_000_000_000).prop_map(
            |(user, nonce, expires_at)| WalRecord::ResumeConsume {
                user,
                nonce,
                expires_at,
            }
        ),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn payload_round_trips(record in arb_record()) {
        let payload = record.encode_payload();
        prop_assert_eq!(WalRecord::decode_payload(&payload), Some(record));
    }

    #[test]
    fn framed_streams_round_trip(records in prop::collection::vec(arb_record(), 0..8)) {
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(&r.encode_frame());
        }
        let (decoded, tail) = decode_stream(&stream);
        prop_assert_eq!(tail, WalTail::Clean);
        prop_assert_eq!(decoded, records);
    }

    /// `encode_frame_into` appends, after whatever the buffer already
    /// holds, exactly the frame `encode_frame` returns, and that frame is
    /// `[len][crc32(payload)][payload]` — the byte format did not move
    /// when frames started sharing a buffer.
    #[test]
    fn encode_frame_into_matches_encode_frame(
        records in prop::collection::vec(arb_record(), 1..6),
        prefix in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut shared = prefix.clone();
        let mut expect = prefix;
        for r in &records {
            r.encode_frame_into(&mut shared);
            let payload = r.encode_payload();
            expect.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expect.extend_from_slice(&crc32(&payload).to_le_bytes());
            expect.extend_from_slice(&payload);
            prop_assert!(expect.ends_with(&r.encode_frame()));
        }
        prop_assert_eq!(shared, expect);
    }

    /// A commit puts on disk the same bytes as its records' own frames
    /// back to back. (A state change the server commits from borrowed
    /// fields is written by the encoder the owned record uses.)
    #[test]
    fn a_commit_is_its_records_frames_back_to_back(
        records in prop::collection::vec(arb_record(), 1..6),
    ) {
        let backend = MemoryBackend::healthy();
        let pump = Persistence::new(Arc::clone(&backend) as Arc<dyn StorageBackend>, 0);
        let mut commit = pump.begin();
        for r in &records {
            commit.record(r);
        }
        commit.flush().expect("a healthy backend commits");
        let frames: Vec<u8> = records.iter().flat_map(|r| r.encode_frame()).collect();
        prop_assert_eq!(backend.durable_wal(), frames);
    }

    /// A stream cut at any byte decodes exactly the whole frames before
    /// the cut — never a partial record, never a panic — and reports the
    /// torn frame's start offset so recovery can truncate to it.
    #[test]
    fn truncation_yields_only_whole_frames(
        records in prop::collection::vec(arb_record(), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let frames: Vec<Vec<u8>> = records.iter().map(|r| r.encode_frame()).collect();
        let stream: Vec<u8> = frames.concat();
        let cut = (cut_seed as usize) % (stream.len() + 1);

        let (decoded, tail) = decode_stream(&stream[..cut]);

        let mut boundary = 0usize;
        let mut whole = 0usize;
        for f in &frames {
            if boundary + f.len() <= cut {
                boundary += f.len();
                whole += 1;
            } else {
                break;
            }
        }
        prop_assert_eq!(&decoded[..], &records[..whole]);
        if cut == boundary {
            prop_assert_eq!(tail, WalTail::Clean);
        } else {
            prop_assert_eq!(tail, WalTail::Torn { offset: boundary });
            prop_assert_eq!(tail.valid_len(cut), boundary);
        }
    }

    /// Flipping any single bit anywhere in a framed stream makes the
    /// decoder stop at the damaged frame: every record before it decodes
    /// untouched, the flipped frame never parses into a record, and the
    /// tail is reported non-clean.
    #[test]
    fn single_bit_flip_never_smuggles_a_record_through(
        records in prop::collection::vec(arb_record(), 1..6),
        flip_seed in any::<u64>(),
    ) {
        let frames: Vec<Vec<u8>> = records.iter().map(|r| r.encode_frame()).collect();
        let stream: Vec<u8> = frames.concat();
        let bit = (flip_seed as usize) % (stream.len() * 8);
        let mut corrupted = stream.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);

        // Which frame holds the flipped byte?
        let mut idx = 0usize;
        let mut off = 0usize;
        while off + frames[idx].len() <= bit / 8 {
            off += frames[idx].len();
            idx += 1;
        }

        let (decoded, tail) = decode_stream(&corrupted);
        prop_assert_eq!(&decoded[..], &records[..idx]);
        prop_assert_ne!(tail, WalTail::Clean);
        prop_assert_eq!(tail.valid_len(corrupted.len()), off);
    }

    /// CRC-32 detects every single-bit error outright.
    #[test]
    fn crc32_sees_every_single_bit_flip(
        bytes in prop::collection::vec(any::<u8>(), 1..64),
        flip_seed in any::<u64>(),
    ) {
        let bit = (flip_seed as usize) % (bytes.len() * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc32(&bytes), crc32(&flipped));
    }

    /// The slicing-by-8 CRC equals the CRC computed a byte at a time, bit
    /// by bit, from the polynomial alone — for inputs up to 4 KiB that
    /// start at every offset mod 8, so every tail length is folded.
    #[test]
    fn crc32_equals_the_bytewise_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..4097),
    ) {
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = 0xffff_ffffu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        for start in 0..8.min(bytes.len() + 1) {
            prop_assert_eq!(crc32(&bytes[start..]), reference(&bytes[start..]));
        }
    }

    /// Arbitrary garbage neither panics the payload decoder nor the
    /// stream decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = WalRecord::decode_payload(&bytes);
        let (decoded, tail) = decode_stream(&bytes);
        // Whatever decoded, the valid prefix is consistent.
        prop_assert!(tail.valid_len(bytes.len()) <= bytes.len());
        let _ = decoded;
    }
}
