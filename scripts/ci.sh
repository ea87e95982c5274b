#!/usr/bin/env bash
# CI gate: hermetic build, full test suite, lint wall.
#
# Everything runs --offline: dependencies resolve to the path shims under
# shims/, so this must pass on a machine with no crate-registry access.
#
# `cargo test --workspace` runs every suite once; each later stanza adds
# something that run cannot:
#   complexity guards  the tests that are only meaningful optimised and
#                      under a timeout (linear-per-operation code runs into it);
#                      a guard whose filter selects no test fails
#   truncation guards  a 261-octet User-Name, a reply its Proxy-State echo
#                      would push past 4 096 octets, and a 254-octet reply
#                      attribute, where debug_assert is compiled out
#   udp ingest         the lone-datagram and burst-tail bounds are wall-clock
#                      ones: they only mean something optimised; so are the
#                      wake rules (a batch wakes a sleeping worker per job, a
#                      receiver at the cap is woken by the first job taken)
#   parked replies     no reply outruns its sync, no ingest thread sleeps on the
#                      pump while a sync is held (counted, not timed), the end of
#                      a sync led outside the ingest rouses a worker (first reply
#                      within 25 ms, against the workers' 50 ms poll), a staff
#                      reset in the shard of a parked SMS finish answers within
#                      5 s, 400 parked logins denied by failing syncs are all
#                      answered from a 256 KiB stack (denial rows released one
#                      after another, not nested), and a compaction among 2 000
#                      logins with 64 in flight strands none: a deadlock runs
#                      into the timeout and fails by name
#   compaction trigger a snapshot only once the WAL holds an eighth of the last
#                      one, across a recovery too, with the record floor kept
#   hash core, OTP     their known answers in the only profile a login runs them in
#                      — the WAL's slicing-by-8 CRC against its bytewise reference too
#   window scan        the nearest-first TOTP scan against its full-scan reference
#                      and its counted work (accept rank+1 MACs, every deny the
#                      whole window), by name: a rename fails instead of dropping them
#   OTP authority      the pure step against its naive reference (full-window
#                      scan, the lock a plain flag), and random op scripts,
#                      failed syncs among them, whose live store, reads and
#                      (no sync failed) audit ring equal what a reload from
#                      storage rebuilds, by name
#   group machine      every interleaving of ≤ 4 commits over ≤ 3 actors (parked
#                      and driven waiting, parked and driven at once then
#                      nudged, a staff commit behind the fence, a commit whose
#                      caller keeps its pass, compactor, reload; a denied
#                      finish's denial row, driven until covered) against the
#                      six invariants (the fourth: no finish runs inside
#                      another; the sixth: rows reach the audit ring in WAL
#                      order, with no exception)
#   audit ring         compaction's bytes equal the encoded exports, users in
#                      shard order; hostile audit frames never reach the ring;
#                      a validate hit allocates nothing; a day of forced
#                      pairings carries its overrun into the next, by name
#   login node         a traced client request allocates its exact count and
#                      a span into a full ring nothing, by name
#   fail-closed pins   a fleet dead at the challenge or between challenge and
#                      answer denies, a dead peer realm rejects and alarms, a
#                      total outage fails closed then recovers: the exemption
#                      file is the only bypass, by name
#   stalled realm      a peer realm stalled inside its exchange does not hold
#                      up a login to another realm: a router lock held across
#                      the exchange deadlocks into the timeout, by name
#   stuffing storm     the workspace run's overload test again, alone and under
#                      a timeout, so a storm that is no longer shed cheaply
#                      fails here by name instead of slowing the whole run
#   SMS read           a read of the newest text visits only that phone's
#                      messages, counted, by name
#   alert windows      each rule's own window against the keep-everything
#                      reference, its prune's counted visits (at most two a
#                      tick, amortised), and the registry's live reads against
#                      a snapshot, by name
#   results/           the figure bins' stdout against the committed captures
#   examples           each example runs once, optimised, under a timeout: README
#                      and DESIGN send readers to them, and the test run only builds them
#   loginbench         benchmark/ is its own workspace, which --workspace skips
#   clippy             lints, all targets
#   rustdoc            no broken or private intra-doc link in the public docs
#   line count         non-test lines in total (scripts/loc.sh), printed, not gated
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q"
cargo test -q --offline --workspace

echo "==> release guards: full span ring, 100 000-entry uid search, 261-octet User-Name, over-length reply and reply attribute, ingest wake rules, stalled realm, udp ingest, parked replies, compaction trigger, group machine, OTP authority, SMS read, alert windows, fail-closed pins"
# No test holds a stopwatch: linear-per-operation code (a minute to several
# minutes of work) runs into the timeout instead. Target flags apply to every
# package named, so the one --lib prebuilds the otpserver and telemetry lib tests too.
cargo test -q --offline --release --no-run \
    -p hpcmfa-telemetry --test trace_props --test span_allocs \
    -p hpcmfa-directory --test index_props \
    -p hpcmfa-otpserver --test group_commit --test compaction_trigger --test wal_proptests \
    --test store_proptests --test durable_format --test validate_allocs --test live_recovered \
    -p hpcmfa-radius --lib --test udp --test zero_alloc \
    -p hpcmfa-crypto -p hpcmfa-otp -p hpcmfa-workload -p hpcmfa-pam
# One guard: the tests each filter selects, under a timeout. A filter that
# selects nothing fails the guard, so renaming or deleting a guarded test
# cannot leave a guard that passes while running no test.
guard() { # <seconds> <cargo test target args>... -- [filter]...
    local secs=$1 args=() out filter
    shift
    while [ "$1" != -- ]; do args+=("$1"); shift; done
    shift
    out=$(timeout "$secs" cargo test --offline "${args[@]}" -- "$@" 2>&1) \
        || { echo "$out"; exit 1; }
    for filter in "${@:-}"; do
        grep -q "^test [^ ]*$filter[^ ]* \.\.\. ok$" <<<"$out" \
            || { echo "guard ${args[*]} ran no test matching '$filter'"; exit 1; }
    done
    grep '^test result' <<<"$out"
}
guard 20 --release -p hpcmfa-telemetry --test trace_props -- \
    a_full_default_ring_takes_a_million_spans
guard 20 --release -p hpcmfa-directory --test index_props -- \
    uid_search_does_not_grow_with_the_directory
guard 20 --release -p hpcmfa-radius --lib -- overlong_username_cannot_rewrite_the_request \
    a_reply_the_proxy_state_echo_would_overflow_is_discarded \
    a_reply_attribute_over_253_octets_is_discarded \
    a_batch_wakes_as_many_sleeping_workers_as_it_has_jobs \
    a_receiver_at_the_cap_is_woken_when_a_worker_takes_a_job
guard 30 --release -p hpcmfa-radius --lib -- a_stalled_peer_realm_does_not_hold_up_another
guard 20 --release -p hpcmfa-radius --test udp --
guard 30 --release -p hpcmfa-otpserver --test group_commit -- \
    no_reply_outruns_its_sync a_failed_sync_denies_parked the_compactor_cannot_strand \
    a_held_sync_puts_no_ingest_thread_to_sleep_on_the_pump \
    a_sync_led_outside_the_ingest_rouses_its_workers_when_it_ends \
    a_staff_change_cannot_hang_on_a_parked_finish_in_its_shard \
    parked_denials_are_released_one_after_another
guard 30 --release -p hpcmfa-otpserver --test compaction_trigger -- \
    compaction_waits_for_an_eighth_of_the_snapshot_in_wal_bytes \
    a_floor_above_an_eighth_of_the_snapshot_still_governs \
    a_zero_floor_never_compacts \
    a_recovered_server_waits_for_an_eighth_of_its_snapshot
guard 60 --release -p hpcmfa-otpserver --lib -- group a_read_visits_only_its_own_phones_messages
guard 60 --release -p hpcmfa-otpserver --lib --test live_recovered -- \
    step_equals_the_naive_reference live_state_equals_recovered_state
guard 60 --release -p hpcmfa-telemetry --lib -- \
    windows_equal_the_keep_everything_reference \
    a_window_visits_at_most_two_readings_a_tick_amortised \
    live_reads_answer_what_a_snapshot_answers
guard 60 --release -p hpcmfa-otpserver --test store_proptests --test durable_format \
    --test validate_allocs -p hpcmfa-workload --lib -- \
    snapshot_live_equals_the_encoded_exports sharded_store_equals_reference_model \
    hostile_audit_frames_in_a_snapshot_are_corrupt \
    hostile_audit_frames_at_the_wal_tail_are_truncated_there \
    whatever_recovery_accepts_the_audit_readers_survive \
    a_validate_hit_allocates_an_exact_count \
    a_day_of_forced_pairings_carries_its_overrun_into_the_next
guard 30 --release -p hpcmfa-radius --test zero_alloc -p hpcmfa-telemetry --test span_allocs -- \
    a_traced_client_request_allocates_an_exact_count \
    an_attribute_free_span_into_a_full_ring_allocates_nothing
guard 30 --release -p hpcmfa-pam -p hpcmfa-radius -p hpcmfa-workload --lib -- \
    backend_outage_fails_secure \
    backend_outage_between_challenge_and_answer_fails_secure \
    dead_realm_fail_closed_rejects_and_alarms \
    total_outage_fails_closed_then_recovers
cargo test -q --offline --release -p hpcmfa-crypto -p hpcmfa-otp
guard 60 --release -p hpcmfa-otp --lib -- \
    verify_tracked_matches_the_full_scan_reference \
    verify_work_is_rank_plus_one_to_accept_and_the_window_to_deny \
    verify_work_near_step_zero_is_the_truncated_window
cargo test -q --offline --release -p hpcmfa-otpserver --test wal_proptests

echo "==> stuffing-storm smoke (sheds fire, zero benign lockouts, p99 SLO)"
guard 30 --test attacks -- stuffing_storm_smoke

echo "==> results/: table1, sms_cost and detection reproduce their committed captures"
# All eight captures run the paper's population (each bin's default). The
# other five come from the same seeded simulator but run on into 2017 or
# repeat table1's rollout; regenerate them by hand (EXPERIMENTS.md).
reproduces() { # <bin> <capture under results/>
    "./target/release/$1" 2>/dev/null | diff "results/$2" - \
        || { echo "results/$2 is stale: the lines marked > are what $1 prints now"; exit 1; }
}
reproduces table1 table1.txt
reproduces sms_cost sms_cost.txt
reproduces detection detection_report.txt

echo "==> examples: each runs to completion (all seven take under 2 s optimised)"
cargo build -q --release --offline --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    timeout 60 "./target/release/examples/$name" >/dev/null \
        || { echo "example $name failed"; exit 1; }
done

echo "==> loginbench compiles against this tree and its own unit tests pass"
# benchmark/ is frozen between benchmark-only PRs: an API drift of
# StorageBackend / ServerConfig / LinotpServer against benchmark/src/sut.rs
# must fail here, not in the benchmark driver. The two tests skipped pin
# the parent's "2 append_wal + 2 sync_wal calls per login", which the
# one-commit-per-operation WAL path halves on purpose; un-skip them in the
# benchmark-only PR that re-derives those counts.
cargo test -q --offline --manifest-path benchmark/Cargo.toml -- \
    --skip every_workload_logs_in_with_the_expected_verdicts \
    --skip spans_join_across_the_udp_hop_and_tile_the_login

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> non-test lines (scripts/loc.sh; per crate: run it alone)"
scripts/loc.sh | tail -n 1

echo "CI green."
