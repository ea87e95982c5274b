//! `loginbench`: a stationary, device-pinned end-to-end login benchmark
//! with a per-layer budget. See `benchmark/README.md`.
//!
//! ```text
//! loginbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! loginbench                  # every workload, each in a fresh child
//! loginbench --layers         # the isolated layer timings only
//! ```

mod alloc;
mod disk;
mod host;
mod run;
mod stats;
mod sut;
mod trace;
mod workload;

use disk::FLUSH_LATENCY;
use run::{Client, Limit, Outcome, Via};
use stats::{drift_pct, median, percentile, quiet_high, quiet_low, segments, Segments};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sut::Sut;
use trace::Tracing;
use workload::{Workload, USERS, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Times the stack is started in an untraced run; `setup_s` reports the
/// median so one slow start does not move it.
const SETUP_REPS: usize = 5;

/// `ssh_full` logs in through sshd in blocks of this many until the
/// repository's span ring is full, giving up after `SSH_FILL_BLOCKS`.
const SSH_FILL_BLOCK_LOGINS: u64 = 128;
const SSH_FILL_BLOCKS: usize = 8;

/// Fixed warm-up at the workload's own traffic and device latency.
const WARMUP: Duration = Duration::from_secs(2);

/// Drift above this is reported as a warning: the segments were not
/// measuring the same thing.
const DRIFT_WARN_PCT: f64 = 5.0;

/// A segment this far below the undisturbed rate counts as disturbed.
const DISTURBED_BELOW: f64 = 0.85;

/// Logins whose spans are written to the trace file (all spans feed
/// the per-layer numbers; the file is a sample for reading).
const TRACE_FILE_LOGINS: usize = 2_000;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    layers: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 15,
        seconds: 20,
        trace: false,
        layers: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--layers" => args.layers = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loginbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        if args.layers {
            host::pin_to_one_cpu();
            print_metrics(&sut::layers(args.seed));
            return ExitCode::SUCCESS;
        }
        return run_all(&args);
    };
    let Some(w) = workload::by_name(name) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("loginbench: unknown workload {name}; one of {names:?}");
        return ExitCode::from(2);
    };
    // Before any thread starts: they all inherit the one CPU.
    host::precise_sleeps();
    let nproc = host::nproc();
    let cpu = host::pin_to_one_cpu();
    if cpu.is_none() {
        eprintln!("loginbench: warning: could not pin to one CPU; expect noise");
    }
    let report = if args.trace {
        traced_run(&w, args.seed, args.seconds, nproc, cpu)
    } else {
        timed_run(&w, args.seed, args.seconds, started)
    };
    print_metrics(&report.metrics);
    println!("{}", to_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The one command: every workload, untraced then traced, each in a
/// fresh child process so peak RSS and allocator state do not leak from
/// one workload into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {} (trace {trace}) ==", w.name);
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("loginbench: {} (trace {trace}) failed: {s}", w.name);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("loginbench: cannot start a child: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Start the stack as a restart would: build it, enrol the population,
/// start serving, and take one login through the whole path. Returns
/// failures.
fn start(w: &Workload, seed: u64, tracing: Option<&Arc<Tracing>>) -> (Sut, Client, u64) {
    let sut = Sut::build(w, seed, tracing);
    let mut client = Client::new(w, seed, &sut);
    let first = run::session(&sut, &mut client, Via::of(w), Limit::Count(1), false, None);
    (sut, client, first.failed + (1 - first.attempted))
}

/// Bring a started stack to the state a long-running server is in, at
/// device latency 0: fill the audit ring and, for `ssh_full`, the span
/// ring. Then the device gets its latency. Returns failures.
fn fill(w: &Workload, sut: &Sut, client: &mut Client) -> u64 {
    let mut failed = sut.fill_audit_ring(client.reserve_passes(sut::FILL_PASSES));
    if w.ssh {
        for _ in 0..SSH_FILL_BLOCKS {
            if sut.span_ring_full() {
                break;
            }
            let limit = Limit::Count(SSH_FILL_BLOCK_LOGINS);
            let done = run::session(sut, client, Via::Ssh, limit, false, None);
            failed += done.failed + (SSH_FILL_BLOCK_LOGINS - done.attempted);
        }
    }
    if let Some(device) = &sut.device {
        device.set_latency(FLUSH_LATENCY);
    }
    failed
}

/// One session of `w`'s own traffic for `duration`.
fn drive(
    sut: &Sut,
    client: &mut Client,
    w: &Workload,
    duration: Duration,
    record: bool,
    tracing: Option<&Tracing>,
) -> Outcome {
    let limit = Limit::Until(Instant::now() + duration);
    run::session(sut, client, Via::of(w), limit, record, tracing)
}

/// Shut the stack down, run the checks that need it quiescent and the
/// one on `segments`, and say what is wrong. Returns whether all is well.
fn tear_down(w: &Workload, sut: &mut Sut, segments: &Segments) -> bool {
    let mut problems = Vec::new();
    sut.shutdown();
    let ingest = sut.ingest();
    if ingest.shed != 0 || ingest.discarded != 0 {
        problems.push(format!(
            "ingest shed {} and discarded {} datagrams",
            ingest.shed, ingest.discarded
        ));
    }
    if let Err(e) = sut.verify_recovery() {
        problems.push(format!("recovery: {e}"));
    }
    if segments.logins_per_s.is_empty() {
        problems.push(format!("no {}-login segment closed", w.segment_logins));
    }
    for p in &problems {
        eprintln!("loginbench: {}: {p}", w.name);
    }
    problems.is_empty()
}

/// The stationarity guard: drift of the segment rates, with a warning
/// when the segments were not measuring the same thing.
fn drift_of(w: &Workload, segments: &Segments) -> f64 {
    let drift = drift_pct(&segments.logins_per_s);
    if drift.abs() > DRIFT_WARN_PCT {
        eprintln!(
            "loginbench: warning: {}: segment rate drifted {drift:+.1} %",
            w.name
        );
    }
    drift
}

/// Share of the segments that ran well below the undisturbed rate: how
/// much of the run a neighbour was around for.
fn disturbed_pct(segments: &Segments) -> f64 {
    let rates = &segments.logins_per_s;
    let floor = quiet_high(rates) * DISTURBED_BELOW;
    let slow = rates.iter().filter(|r| **r < floor).count();
    slow as f64 / rates.len().max(1) as f64 * 100.0
}

/// `--trace 0`: the end-to-end metrics, decorators absent.
fn timed_run(w: &Workload, seed: u64, seconds: u64, started: Instant) -> Report {
    let mut starts = Vec::new();
    let mut kept = None;
    let mut failed = 0;
    for rep in 0..SETUP_REPS {
        // The first repetition is charged from process start.
        let t = if rep == 0 { started } else { Instant::now() };
        let (mut sut, client, start_failed) = start(w, seed, None);
        starts.push(t.elapsed().as_secs_f64());
        failed += start_failed;
        if rep + 1 < SETUP_REPS {
            sut.shutdown();
        } else {
            kept = Some((sut, client));
        }
    }
    let (mut sut, mut client) = kept.expect("the last repetition is kept");
    failed += fill(w, &sut, &mut client);
    let t = Instant::now();
    let warm = drive(&sut, &mut client, w, WARMUP, false, None);
    let setup_s = median(&starts) + t.elapsed().as_secs_f64();

    let duration = Duration::from_secs(seconds);
    let timed = drive(&sut, &mut client, w, duration, true, None);
    let seg = segments(&timed.bounds, &timed.latencies_ns, w.segment_logins);
    let sound = tear_down(w, &mut sut, &seg);
    drift_of(w, &seg);
    failed += timed.failed + warm.failed;
    Report {
        correct: failed == 0 && sound,
        attempted: timed.attempted + warm.attempted,
        failed,
        metrics: vec![
            metric("logins_per_s", quiet_high(&seg.logins_per_s), "1/s"),
            metric("login_p50_us", quiet_low(&seg.p50_us), "us"),
            metric("heap_mb", median(&timed.heap_mib), "MiB"),
            metric("setup_s", setup_s, "s"),
        ],
    }
}

/// `--trace 1`: the per-layer metrics. One stack serves an untraced
/// reference phase and then a traced phase, so the tracing overhead is
/// the difference between two phases of the same process.
fn traced_run(w: &Workload, seed: u64, seconds: u64, nproc: f64, cpu: Option<usize>) -> Report {
    let load_start = host::loadavg();
    let stat_start = host::cpu_jiffies();
    let tracing = Arc::new(Tracing::new(USERS));
    let (mut sut, mut client, mut failed) = start(w, seed, Some(&tracing));
    let t = Instant::now();
    failed += fill(w, &sut, &mut client);
    let fill_s = t.elapsed().as_secs_f64();
    let total = Duration::from_secs(seconds);
    let warm = drive(&sut, &mut client, w, WARMUP, false, None);
    let allocated = (alloc::allocations(), alloc::allocated_bytes());
    let reference = drive(&sut, &mut client, w, total / 3, true, None);
    let reference_logins = reference.attempted.max(1) as f64;
    let allocs_per_login = (alloc::allocations() - allocated.0) as f64 / reference_logins;
    let alloc_bytes_per_login = (alloc::allocated_bytes() - allocated.1) as f64 / reference_logins;

    tracing.collector.set_enabled(true);
    let device_before = sut
        .device
        .as_ref()
        .map(|d| d.counters())
        .unwrap_or_default();
    let ingest_before = sut.ingest();
    let retries_before = sut.client_retries();
    let traced = drive(&sut, &mut client, w, total * 2 / 3, true, Some(&tracing));
    tracing.collector.set_enabled(false);
    let device = sut
        .device
        .as_ref()
        .map(|d| d.counters().since(&device_before))
        .unwrap_or_default();
    let retries = sut.client_retries() - retries_before;
    let seg = segments(&traced.bounds, &traced.latencies_ns, w.segment_logins);
    let reference_seg = segments(&reference.bounds, &reference.latencies_ns, w.segment_logins);
    let sound = tear_down(w, &mut sut, &seg);
    let ingest = sut.ingest();

    let spans = tracing.collector.drain();
    let selfs = trace::self_times(&spans);
    let logins = spans.iter().filter(|s| s.parent == 0).count().max(1) as f64;
    let per_login_us = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / logins / 1e3;
    let mut metrics = Vec::new();
    for layer in [
        "ssh",
        "pam_risk",
        "pam_pubkey",
        "pam_unix",
        "pam_exempt",
        "pam_token",
        "udp_ingest",
        "handler",
        "storage_append",
        "storage_flush",
        "storage_snapshot",
    ] {
        metrics.push(metric(
            &format!("span.{layer}.self_us"),
            per_login_us(layer),
            "us",
        ));
    }
    metrics.push(metric(
        "span.closure_pct",
        trace::closure_pct(&spans, &selfs, "client"),
        "%",
    ));
    let completed = traced.latencies_ns.len().max(1) as f64;
    metrics.push(metric(
        "wait.device_queue_us",
        device.wait_ns as f64 / completed / 1e3,
        "us",
    ));

    let received = (ingest.received - ingest_before.received) as f64;
    let batches = (ingest.batches - ingest_before.batches).max(1) as f64;
    metrics.extend([
        metric("count.datagrams_per_login", 2.0 * received / completed, "1"),
        metric(
            "count.wal_appends_per_login",
            device.appends as f64 / completed,
            "1",
        ),
        metric(
            "count.wal_record_bytes_per_login",
            device.append_bytes as f64 / completed,
            "B",
        ),
        metric(
            "count.snapshot_bytes_per_login",
            device.snapshot_bytes as f64 / completed,
            "B",
        ),
        metric(
            "count.snapshots_per_1k_logins",
            device.snapshots as f64 / completed * 1e3,
            "1",
        ),
        metric("count.ingest_batch_mean", received / batches, "1"),
        metric("count.ingest_shed", ingest.shed as f64, "count"),
        metric("count.ingest_discarded", ingest.discarded as f64, "count"),
        metric(
            "count.client_retries_per_login",
            retries as f64 / completed,
            "1",
        ),
        metric("count.allocs_per_login", allocs_per_login, "1"),
        metric("count.alloc_bytes_per_login", alloc_bytes_per_login, "B"),
        metric("flushes_per_login", device.flushes as f64 / completed, "1"),
        metric(
            "wal_bytes_per_login",
            (device.append_bytes + device.snapshot_bytes) as f64 / completed,
            "B",
        ),
    ]);

    let reference_p50 = quiet_low(&reference_seg.p50_us);
    let overhead = if reference_p50 > 0.0 {
        (quiet_low(&seg.p50_us) - reference_p50) / reference_p50 * 100.0
    } else {
        0.0
    };
    let mut sorted = reference.latencies_ns.clone();
    sorted.sort_unstable();
    let tail = |q: f64| percentile(&sorted, q) as f64 / 1e3;
    metrics.extend([
        metric(
            "cpu_us_per_login",
            quiet_low(&reference_seg.cpu_us_per_login),
            "us",
        ),
        metric("rss_mb", median(&reference.rss_mib), "MiB"),
        metric("trace.overhead_pct", overhead, "%"),
        metric("client.login_p90_us", tail(0.90), "us"),
        metric("client.login_p99_us", tail(0.99), "us"),
        metric("client.login_max_us", tail(1.0), "us"),
        metric("client.samples", sorted.len() as f64, "count"),
        metric("stationarity.drift_pct", drift_of(w, &seg), "%"),
        metric("setup.fill_s", fill_s, "s"),
        metric("host.nproc", nproc, "count"),
        metric("host.pinned_cpu", cpu.map_or(-1.0, |c| c as f64), "1"),
        metric("host.loadavg_start", load_start, "1"),
        metric(
            "host.steal_pct",
            host::steal_pct(&stat_start, &host::cpu_jiffies()),
            "%",
        ),
        metric("host.disturbed_pct", disturbed_pct(&reference_seg), "%"),
    ]);
    write_trace(w, &spans);
    metrics.extend(sut::layers(seed));

    failed += traced.failed + reference.failed + warm.failed;
    Report {
        correct: failed == 0 && sound,
        attempted: traced.attempted + reference.attempted + warm.attempted,
        failed,
        metrics,
    }
}

/// `<package>/out`, created on demand: the only place the benchmark
/// writes files.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn write_trace(w: &Workload, spans: &[trace::Span]) {
    let mut roots = 0;
    let sample: Vec<_> = spans
        .iter()
        .take_while(|s| {
            roots += usize::from(s.parent == 0);
            roots <= TRACE_FILE_LOGINS
        })
        .copied()
        .collect();
    let written = out_dir().and_then(|dir| {
        let path = dir.join(format!("trace-{}.json", w.name));
        trace::write_json(&path, &sample).map(|()| path)
    });
    match written {
        Ok(path) => eprintln!(
            "loginbench: {} spans written to {}",
            sample.len(),
            path.display()
        ),
        Err(e) => eprintln!("loginbench: trace file not written: {e}"),
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn to_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}
