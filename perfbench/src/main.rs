//! Outside-in benchmark of the ESD workspace.
//!
//! ```text
//! esd-perfbench --workload <bpf-ladder|genbug-search|service-durable>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run works through a fixed job list generated from the seed (its
//! length scales with `--seconds`), checks every execution file, and prints
//! one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Run from the
//! repository root; scratch state goes to `.bench_state/`. See `NOTES.md`.

mod check;
mod closed_loop;
mod jobs;
mod layers;
mod recovery;
mod service;
mod stats;
mod trace;

use check::{verify, ExactCounts, SearchCounts};
use closed_loop::ClosedLoop;
use jobs::{job_list, Job, Workload};
use service::ServiceRig;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

use esd_core::executor::DEFAULT_CHECKPOINT_EVERY;
use esd_core::JobExecutor;
use esd_service::wire::{
    decode_request, decode_response, encode_request, encode_response, FRAME_HEADER,
};
use esd_service::{JobRequest, WireRequest, WireResponse};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set (VmHWM) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a of this executable, so stored exact counts are only compared
/// between runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

fn executor_for(workload: Workload) -> JobExecutor {
    match workload {
        Workload::BpfLadder | Workload::ServiceDurable => JobExecutor::round_robin(),
        Workload::GenbugSearch => JobExecutor::round_robin().batch_width(2).pool_size(2),
    }
}

/// Jobs outstanding in the closed loop.
fn depth_of(workload: Workload) -> usize {
    match workload {
        Workload::BpfLadder => 1,
        Workload::GenbugSearch => 2,
        Workload::ServiceDurable => service::CONNECTIONS,
    }
}

/// Jobs of the crash-recovery prefix, the `run_slice` count at which the
/// replica is dropped, and the `recover_s` samples per run (half before and
/// half after the timed loop). Genbug crashes before its first checkpoint:
/// a snapshot holding running medium sessions takes minutes to load.
fn crash_point(workload: Workload) -> (usize, u64, usize) {
    match workload {
        Workload::BpfLadder => (3, 2, 12),
        Workload::GenbugSearch => (24, 12, 12),
        Workload::ServiceDurable => (104, 100, 16),
    }
}

/// Everything the timed loop produced.
#[derive(Default)]
struct LoopResult {
    wall_s: f64,
    latencies: Vec<f64>,
    /// The job index of each latency sample.
    order: Vec<usize>,
    queue_wait_s: f64,
    attempted: usize,
    failures: Vec<String>,
    files: BTreeMap<usize, String>,
    counts: BTreeMap<usize, SearchCounts>,
    slices: u64,
    rounds: u64,
    polls: u64,
    overloaded: u64,
    /// Outcomes taken over the wire (service only), kept for the codec
    /// timings; with the poll count of each job.
    wire_outcomes: Vec<(usize, u64, esd_core::JobOutcome)>,
}

impl LoopResult {
    fn verified(&self) -> usize {
        self.files.len()
    }
}

/// A set-up workload, ready for its timed loop.
enum Prepared {
    InProcess { closed_loop: ClosedLoop },
    Service { rig: ServiceRig, requests: Vec<(usize, Option<JobRequest>)> },
}

struct Bench {
    workload: Workload,
    seed: u64,
    n: usize,
    state: PathBuf,
}

impl Bench {
    /// Generates the job list and prepares the executor or the daemon,
    /// including one untimed warm-up job. Returns the set-up time.
    fn setup(&self, tag: &str, tracer: &Tracer) -> Result<(f64, Vec<Job>, Prepared, f64), String> {
        let t0 = Instant::now();
        let jobs =
            tracer.span("workloads.generate", None, || job_list(self.workload, self.seed, self.n));
        let generate_s = t0.elapsed().as_secs_f64();
        let warmup = self.workload.warmup_job();
        let prepared = match self.workload {
            Workload::BpfLadder | Workload::GenbugSearch => {
                let mut closed_loop = ClosedLoop::with_specs(
                    executor_for(self.workload),
                    vec![(0, Some(warmup.spec()))],
                    1,
                );
                let mut ok = false;
                while !closed_loop.done() {
                    closed_loop
                        .step(&Tracer::new(false), &mut |f| ok = f.outcome.report().is_some());
                }
                if !ok {
                    return Err("warm-up job failed".to_string());
                }
                let order: Vec<usize> = (0..jobs.len()).collect();
                Prepared::InProcess {
                    closed_loop: ClosedLoop::new(
                        closed_loop.exec,
                        &jobs,
                        &order,
                        depth_of(self.workload),
                    ),
                }
            }
            Workload::ServiceDurable => {
                let dir = self.state.join(tag);
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let mut rig = ServiceRig::start(&dir)?;
                let requests =
                    jobs.iter().enumerate().map(|(i, j)| (i, Some(j.request()))).collect();
                let outcome = service::run_one(&mut rig, warmup.request())?;
                if outcome.report().is_none() {
                    return Err("warm-up job failed".to_string());
                }
                Prepared::Service { rig, requests }
            }
        };
        Ok((t0.elapsed().as_secs_f64(), jobs, prepared, generate_s))
    }

    /// The timed closed loop over the whole job list.
    fn timed_loop(&self, jobs: &[Job], prepared: &mut Prepared, tracer: &Tracer) -> LoopResult {
        let mut r = LoopResult::default();
        let t0 = Instant::now();
        match prepared {
            Prepared::InProcess { closed_loop } => {
                let mut done = |f: closed_loop::Finished| {
                    r.attempted += 1;
                    r.latencies.push(f.latency_s);
                    r.order.push(f.index);
                    r.queue_wait_s += f.queue_wait_s;
                    match verify(&jobs[f.index], f.index, &f.outcome, tracer) {
                        Ok(v) => {
                            r.files.insert(f.index, v.exec_json);
                            r.counts.insert(f.index, v.counts);
                        }
                        Err(e) => r.failures.push(e),
                    }
                };
                while !closed_loop.done() {
                    closed_loop.step(tracer, &mut done);
                }
                r.slices = closed_loop.slices;
                // The warm-up job's rounds are excluded.
                let stats = closed_loop.exec.stats();
                r.rounds = stats.jobs.iter().skip(1).map(|j| j.rounds).sum();
            }
            Prepared::Service { rig, requests } => {
                let mut outcomes = Vec::new();
                let mut done = |t: service::Taken| {
                    r.attempted += 1;
                    r.latencies.push(t.latency_s);
                    r.order.push(t.index);
                    r.queue_wait_s += t.queue_wait_s;
                    match t
                        .outcome
                        .and_then(|o| verify(&jobs[t.index], t.index, &o, tracer).map(|v| (v, o)))
                    {
                        Ok((v, o)) => {
                            r.files.insert(t.index, v.exec_json);
                            r.counts.insert(t.index, v.counts);
                            outcomes.push((t.index, t.polls, o));
                        }
                        Err(e) => r.failures.push(e),
                    }
                };
                let client = service::closed_loop(rig, requests, tracer, &mut done);
                r.polls = client.polls;
                r.overloaded = client.overloaded;
                r.wire_outcomes = outcomes;
            }
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        r
    }

    /// Shuts a prepared workload down; returns the jobs the daemon's
    /// durable snapshot held (service only).
    fn teardown(&self, prepared: Prepared) -> Result<u64, String> {
        match prepared {
            Prepared::InProcess { .. } => Ok(0),
            Prepared::Service { rig, .. } => {
                let (dir, submitted) = (rig.durable_dir.clone(), rig.submitted);
                rig.stop()?;
                service::snapshot_jobs(&dir, submitted)
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(recovery::CHILD_FLAG) {
        std::process::exit(recovery::child_main(&argv[2..]));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("esd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let state = PathBuf::from(".bench_state").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let code = match run(&args, &state) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("esd-perfbench: {e}");
            1
        }
    };
    let _ = std::fs::remove_dir_all(&state);
    std::process::exit(code);
}

struct Output {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run(args: &Args, state: &Path) -> Result<i32, String> {
    std::fs::create_dir_all(state).map_err(|e| format!("{}: {e}", state.display()))?;
    let bench = Bench {
        workload: args.workload,
        seed: args.seed,
        n: args.workload.job_count(args.seconds),
        state: state.to_path_buf(),
    };
    let off = Tracer::new(false);
    let started = Instant::now();
    let phase = |name: &str| eprintln!("[{:8.3} s] {name}", started.elapsed().as_secs_f64());

    // Set-up, several times; the last one is kept for the timed loop.
    let mut setup_times = Vec::new();
    let mut kept = None;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    for i in 0..repeats {
        let (secs, jobs, prepared, _) = bench.setup(&format!("setup{i}"), &off)?;
        setup_times.push(secs);
        if let Some((_, old)) = kept.replace((jobs, prepared)) {
            bench.teardown(old)?;
        }
    }
    let (jobs, mut prepared) = kept.expect("at least one set-up");

    // Crash a durable replica over a fixed prefix of the recovery tier;
    // sample its recovery before and after the timed loop.
    let workload = args.workload;
    let tracer = Tracer::new(args.trace);
    let (prefix, crash_after, samples) = crash_point(workload);
    let tier = workload.recovery_tier();
    let order: Vec<usize> =
        (0..jobs.len()).filter(|&i| jobs[i].tier == tier).take(prefix).collect();
    let mut crashed = recovery::Crashed::new(
        executor_for(workload),
        &jobs,
        &order,
        depth_of(workload),
        crash_after,
        &state.join("replica"),
        &tracer,
    )?;
    crashed.sample(samples / 2)?;
    phase("set-up and crash done; timed loop starts");

    let untraced = bench.timed_loop(&jobs, &mut prepared, &off);
    phase("timed loop done");
    let daemon_jobs = bench.teardown(prepared)?;

    crashed.sample(samples - samples / 2)?;
    let recovery = crashed.finish(&untraced.files, &tracer)?;
    phase("recovery done");

    let mut attempted = untraced.attempted + recovery.compared;
    let mut failures = untraced.failures.clone();
    failures.extend(recovery.mismatches.iter().cloned());
    let mut exact = ExactCounts::new();
    record_loop_counts(&mut exact, &untraced, workload);
    exact.set("journal.records", recovery.journal_records);
    exact.set("journal.bytes", recovery.journal_bytes);

    let p50 = percentile(&untraced.latencies, 0.5);
    let p90 = percentile(&untraced.latencies, 0.9);
    eprintln!(
        "{} seed {}: {} jobs, {} verified, wall {:.3} s, p50 {:?} ({} samples, {} beyond), p90 {:?} ({} samples, {} beyond)",
        workload.name(),
        args.seed,
        untraced.attempted,
        untraced.verified(),
        untraced.wall_s,
        p50.value,
        p50.samples,
        p50.beyond,
        p90.value,
        p90.samples,
        p90.beyond
    );
    eprintln!(
        "recovery: {} jobs, crash after {} of {} slices, snapshot {} B, journal {} records / {} B, recover {:.4} s (lower quartile of {} in fresh processes; snapshot load {:.4} + journal load {:.4} + replay {:.4})",
        order.len(),
        crash_after,
        recovery.total_slices,
        recovery.snapshot_bytes,
        recovery.journal_records,
        recovery.journal_bytes,
        recovery.recover_s,
        recovery.recover_samples,
        recovery.snapshot_load_s,
        recovery.journal_load_s,
        recovery.journal_replay_s
    );
    for (tier, lat) in tier_latencies(&jobs, &untraced) {
        eprintln!(
            "  tier {tier:>10}: {} jobs, latency min {:.4} / median {:.4} / max {:.4} s",
            lat.len(),
            lat[0],
            median(&lat),
            lat[lat.len() - 1]
        );
    }
    if workload == Workload::ServiceDurable {
        eprintln!(
            "daemon durable snapshot held {daemon_jobs} jobs; {} polls, {} overloaded",
            untraced.polls, untraced.overloaded
        );
    }

    let mut out = Output { correct: true, attempted, failed: 0, metrics: Vec::new() };
    if !args.trace {
        let (Some(p50v), Some(p90v)) = (p50.value, p90.value) else {
            return Err("too few samples for p50/p90".to_string());
        };
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("jobs_per_s", untraced.verified() as f64 / untraced.wall_s, "1/s");
        out.metric("latency_p50_s", p50v, "s");
        out.metric("latency_p90_s", p90v, "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("recover_s", recovery.recover_s, "s");
        eprintln!(
            "setup_s {:?} (median of {}), latency samples {}",
            setup_times,
            setup_times.len(),
            untraced.latencies.len()
        );
    } else {
        traced_run(
            &bench,
            &jobs,
            &untraced,
            &recovery,
            daemon_jobs,
            &tracer,
            &mut exact,
            &mut out,
            &mut failures,
        )?;
        attempted = out.attempted;
    }

    // Exact counts must repeat in every run of this build and job list.
    let counts_path = state.parent().expect("state has a parent").join(format!(
        "counts-{}-s{}-n{}-{}.txt",
        workload.name(),
        args.seed,
        bench.n,
        build_id()
    ));
    let mismatches = exact.check_and_record(&counts_path);
    for m in &mismatches {
        eprintln!("EXACT COUNT MISMATCH: {m}");
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    phase("exact counts checked");
    out.attempted = attempted;
    out.failed = failures.len();
    out.correct = failures.is_empty() && mismatches.is_empty();
    out.print();
    Ok(if mismatches.is_empty() { 0 } else { 3 })
}

/// Sorted latencies per tier, tiers in first-seen order.
fn tier_latencies(jobs: &[Job], r: &LoopResult) -> Vec<(String, Vec<f64>)> {
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for (&index, &latency) in r.order.iter().zip(&r.latencies) {
        let name = jobs[index].tier.name();
        match out.iter_mut().find(|(t, _)| *t == name) {
            Some((_, v)) => v.push(latency),
            None => out.push((name, vec![latency])),
        }
    }
    for (_, v) in &mut out {
        v.sort_by(f64::total_cmp);
    }
    out
}

fn record_loop_counts(exact: &mut ExactCounts, r: &LoopResult, workload: Workload) {
    let mut total = SearchCounts::default();
    for c in r.counts.values() {
        total.add(c);
    }
    for (name, v) in total.named() {
        exact.set(name, v);
    }
    exact.set("execfile.bytes", r.files.values().map(|f| f.len() as u64).sum());
    exact.set("jobs.verified", r.verified() as u64);
    if workload != Workload::ServiceDurable {
        exact.set("executor.slices", r.slices);
        exact.set("executor.rounds", r.rounds);
    }
}

/// The traced run: the same loop again with spans on, then the layer probe
/// and, for the service, the codec timings and a durable replica that
/// checkpoints where the daemon would.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    bench: &Bench,
    jobs: &[Job],
    untraced: &LoopResult,
    recovery: &recovery::RecoveryReport,
    daemon_jobs: u64,
    tracer: &Tracer,
    exact: &mut ExactCounts,
    out: &mut Output,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let workload = bench.workload;
    let (_, _, mut prepared, generate_s) = bench.setup("traced", tracer)?;
    let traced = bench.timed_loop(jobs, &mut prepared, tracer);
    bench.teardown(prepared)?;
    failures.extend(traced.failures.iter().cloned());
    let mut attempted = untraced.attempted + recovery.compared + traced.attempted;

    // Per-job exact counts: traced loop against untraced loop.
    if traced.counts != untraced.counts || traced.files != untraced.files {
        failures.push("traced loop counts or execution files differ from the untraced loop".into());
    }

    // The layer probe.
    let mut probed = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        attempted += 1;
        match layers::probe(job, i, tracer) {
            Ok(p) => {
                if untraced.counts.get(&i) != Some(&p.counts)
                    || untraced.files.get(&i) != Some(&p.exec_json)
                {
                    failures
                        .push(format!("{}: probe counts differ from the executor's", job.label));
                }
                probed.push(p);
            }
            Err(e) => failures.push(e),
        }
    }
    let sum = |f: fn(&layers::ProbedJob) -> u64| probed.iter().map(f).sum::<u64>();
    let (one_sided, race_pairs, goals) =
        (sum(|p| p.one_sided_branches), sum(|p| p.race_pairs), sum(|p| p.intermediate_goals));
    exact.set("analysis.one_sided_branches", one_sided);
    exact.set("analysis.race_pairs", race_pairs);
    exact.set("analysis.intermediate_goals", goals);

    // Wire codec on the workload's real frames, and a durable replica of
    // the daemon's executor (service only).
    let mut wire = BTreeMap::<&str, f64>::new();
    if workload == Workload::ServiceDurable {
        for (index, polls, outcome) in &traced.wire_outcomes {
            let submit = WireRequest::Submit { request: jobs[*index].request() };
            let take = WireResponse::Outcome { outcome: Box::new(Some(outcome.clone())) };
            let poll = WireRequest::Poll { ticket: outcome.handle.id() };
            let status = WireResponse::Status { status: esd_core::JobStatus::Queued };
            let job = Some(*index);
            let frame = tracer.span("wire.encode_request", job, || encode_request(&submit));
            *wire.entry("request_bytes").or_default() += frame.len() as f64;
            tracer
                .span("wire.decode_request", job, || decode_request(&frame[FRAME_HEADER..]))
                .map_err(|e| e.to_string())?;
            let frame = tracer.span("wire.encode_response", job, || encode_response(&take));
            *wire.entry("response_bytes").or_default() += frame.len() as f64;
            tracer
                .span("wire.decode_response", job, || decode_response(&frame[FRAME_HEADER..]))
                .map_err(|e| e.to_string())?;
            for _ in 0..*polls {
                let frame = tracer.span("wire.encode_request", job, || encode_request(&poll));
                tracer
                    .span("wire.decode_request", job, || decode_request(&frame[FRAME_HEADER..]))
                    .map_err(|e| e.to_string())?;
                let frame = tracer.span("wire.encode_response", job, || encode_response(&status));
                tracer
                    .span("wire.decode_response", job, || decode_response(&frame[FRAME_HEADER..]))
                    .map_err(|e| e.to_string())?;
            }
        }
        exact.set(
            "wire.submit_request_bytes",
            wire.get("request_bytes").copied().unwrap_or(0.0) as u64,
        );

        let dir = bench.state.join("durable-replica");
        let exec = JobExecutor::round_robin()
            .checkpoint_every(u64::MAX)
            .durable_dir(&dir)
            .map_err(|e| format!("durable replica: {e}"))?;
        let order: Vec<usize> = (0..jobs.len()).collect();
        let mut replica = ClosedLoop::new(exec, jobs, &order, depth_of(workload))
            .checkpoint_every(DEFAULT_CHECKPOINT_EVERY);
        let durability = Tracer::new(true);
        while !replica.done() {
            replica.step(&durability, &mut |_| {});
        }
        let t = durability.layer_times();
        let get = |n: &str| t.get(n).map_or(0.0, |l| l.total_s);
        wire.insert("checkpoint_s", get("snapshot.checkpoint"));
        wire.insert("journal_submit_s", get("executor.submit"));
        wire.insert("replica_run_slice_s", t.get("executor.run_slice").map_or(0.0, |l| l.self_s));
        wire.insert("replica_slices", replica.slices as f64);
        wire.insert("replica_rounds", replica.exec.stats().rounds_dispatched as f64);
    }

    let t = tracer.layer_times();
    eprintln!("{:<24} {:>8} {:>12} {:>12}", "span", "count", "total s", "self s");
    for (name, l) in &t {
        eprintln!("{name:<24} {:>8} {:>12.6} {:>12.6}", l.count, l.total_s, l.self_s);
    }
    let total = |n: &str| t.get(n).map_or(0.0, |l| l.total_s);
    let count = |n: &str| t.get(n).map_or(0, |l| l.count);
    let per_call = |n: &str| if count(n) == 0 { 0.0 } else { total(n) / count(n) as f64 };
    // Shares of job time: the probe runs each job's layers back to back on
    // one thread, so its per-job span is the job time they divide.
    let job_s = total("probe.job");
    let static_s = total("analysis.static");
    let dynamic_s = total("symex.run_for");
    let mut c = SearchCounts::default();
    for p in &probed {
        c.add(&p.counts);
    }

    out.metric("analysis.static_s", static_s, "s");
    for pass in [
        "cfg",
        "callgraph",
        "costs",
        "goal_info",
        "interval",
        "lockorder",
        "pointsto",
        "racecand",
        "slice",
    ] {
        let name = format!("analysis.{pass}");
        out.metric(&format!("{name}_s"), t.get(name.as_str()).map_or(0.0, |l| l.total_s), "s");
    }
    out.metric("analysis.static_exponent", layers::static_exponent(&probed), "log2");
    out.metric("analysis.one_sided_branches", one_sided as f64, "count");
    out.metric("analysis.race_pairs", race_pairs as f64, "count");
    out.metric("analysis.intermediate_goals", goals as f64, "count");
    out.metric("analysis.static_share", static_s / job_s, "ratio");

    out.metric("symex.engine_new_s", total("symex.engine_new"), "s");
    out.metric("symex.dynamic_s", dynamic_s, "s");
    for (name, v) in c.named() {
        out.metric(name, v as f64, "count");
    }
    out.metric("symex.us_per_step", dynamic_s * 1e6 / c.steps.max(1) as f64, "us");
    out.metric("symex.us_per_query", dynamic_s * 1e6 / c.solver_queries.max(1) as f64, "us");
    out.metric(
        "symex.prune_ratio",
        c.states_pruned as f64 / c.states_created.max(1) as f64,
        "ratio",
    );
    out.metric("symex.dynamic_share", dynamic_s / job_s, "ratio");

    let service = workload == Workload::ServiceDurable;
    let w = |k: &str| wire.get(k).copied().unwrap_or(0.0);
    out.metric(
        "executor.run_slice_s",
        if service {
            w("replica_run_slice_s")
        } else {
            t.get("executor.run_slice").map_or(0.0, |l| l.self_s)
        },
        "s",
    );
    out.metric(
        "executor.slices",
        if service { w("replica_slices") } else { traced.slices as f64 },
        "count",
    );
    out.metric(
        "executor.rounds",
        if service { w("replica_rounds") } else { traced.rounds as f64 },
        "count",
    );
    out.metric("executor.queue_wait_s", traced.queue_wait_s, "s");

    out.metric("snapshot.build_s", recovery.snapshot_build_s, "s");
    out.metric("snapshot.save_s", recovery.snapshot_save_s, "s");
    out.metric("snapshot.bytes", recovery.snapshot_bytes as f64, "bytes");
    out.metric("snapshot.load_s", recovery.snapshot_load_s, "s");
    out.metric("snapshot.checkpoint_s", w("checkpoint_s"), "s");
    out.metric("snapshot.daemon_jobs", daemon_jobs as f64, "count");
    out.metric("journal.load_s", recovery.journal_load_s, "s");
    out.metric("journal.replay_s", recovery.journal_replay_s, "s");
    out.metric("journal.bytes", recovery.journal_bytes as f64, "bytes");
    out.metric("journal.records", recovery.journal_records as f64, "count");
    out.metric("journal.submit_s", w("journal_submit_s"), "s");
    out.metric(
        "recovery.parts_share",
        (recovery.snapshot_load_s + recovery.journal_load_s + recovery.journal_replay_s)
            / recovery.recover_s,
        "ratio",
    );

    out.metric("service.submit_rtt_s", per_call("service.submit"), "s");
    out.metric("service.poll_rtt_s", per_call("service.poll"), "s");
    out.metric("service.take_rtt_s", per_call("service.take"), "s");
    out.metric(
        "service.polls_per_job",
        traced.polls as f64 / traced.attempted.max(1) as f64,
        "count",
    );
    out.metric("service.overloaded", (untraced.overloaded + traced.overloaded) as f64, "count");
    out.metric("wire.request_bytes", w("request_bytes"), "bytes");
    out.metric("wire.response_bytes", w("response_bytes"), "bytes");
    out.metric("wire.encode_request_s", total("wire.encode_request"), "s");
    out.metric("wire.decode_request_s", total("wire.decode_request"), "s");
    out.metric("wire.decode_response_s", total("wire.decode_response"), "s");
    let wire_s = total("wire.encode_request")
        + total("wire.decode_request")
        + total("wire.encode_response")
        + total("wire.decode_response");
    let durability_s = w("checkpoint_s") + w("journal_submit_s");
    let synthesis_s = static_s + total("symex.engine_new") + dynamic_s;
    out.metric("service.wire_s", wire_s, "s");
    out.metric("service.durability_s", durability_s, "s");
    out.metric("service.synthesis_s", synthesis_s, "s");

    out.metric(
        "execfile.bytes",
        untraced.files.values().map(|f| f.len()).sum::<usize>() as f64,
        "bytes",
    );
    out.metric("execfile.to_json_s", total("execfile.to_json"), "s");
    out.metric("playback.replay_s", total("playback.replay"), "s");
    out.metric("workloads.generate_s", generate_s, "s");
    out.metric("trace.wall_untraced_s", untraced.wall_s, "s");
    out.metric("trace.wall_traced_s", traced.wall_s, "s");
    out.metric("trace.overhead", traced.wall_s / untraced.wall_s - 1.0, "ratio");
    out.metric("trace.spans", tracer.span_count() as f64, "count");

    eprintln!(
        "shares of probed job time ({job_s:.3} s): static {:.3}, dynamic {:.3}; service wire {wire_s:.3} s + durability {durability_s:.3} s vs synthesis {synthesis_s:.3} s",
        static_s / job_s,
        dynamic_s / job_s
    );
    let _ = tracer.write(&bench.state.parent().expect("state has a parent").join(format!(
        "trace-{}-s{}.jsonl",
        workload.name(),
        bench.seed
    )));
    out.attempted = attempted;
    Ok(())
}
