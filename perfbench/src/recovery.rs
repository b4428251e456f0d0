//! The crash-recovery scenario: a durable replica of the workload's
//! executor runs a fixed prefix of the job list, is dropped after a fixed
//! count of `run_slice` calls, and is recovered. The snapshot and journal
//! tail it leaves are the same in every run with the same seed.
//!
//! The crash happens before the timed loop. `recover_s` is sampled in
//! fresh child processes, as a restarted daemon recovers, before and after
//! the loop, so its samples span the whole run and never inherit the
//! allocator state the loop leaves behind. Even so, runs of identical
//! recoveries in one process alternate between a fast and a slow mode
//! (up to 1.8x apart on a 2-vCPU VM); the lower quartile of the samples
//! reports the fast mode.

use crate::closed_loop::{ClosedLoop, Finished};
use crate::jobs::Job;
use crate::stats::{lower_quartile, median};
use crate::trace::Tracer;
use esd_core::journal;
use esd_core::snapshot::{load_snapshot, save_snapshot};
use esd_core::{ExecutorSnapshot, JobExecutor, Recovery};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Repetitions of each part of the recovery cost; medians are reported.
const PART_REPEATS: usize = 3;

#[derive(Default)]
pub struct RecoveryReport {
    pub recover_s: f64,
    pub recover_samples: usize,
    pub snapshot_build_s: f64,
    pub snapshot_save_s: f64,
    pub snapshot_bytes: u64,
    pub snapshot_load_s: f64,
    pub journal_load_s: f64,
    pub journal_replay_s: f64,
    pub journal_bytes: u64,
    pub journal_records: u64,
    /// Slices the replica needed in all, crash included.
    pub total_slices: u64,
    /// Jobs whose execution file was compared with the uncrashed run.
    pub compared: usize,
    pub mismatches: Vec<String>,
}

fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    drop(r);
    secs
}

fn median_of<R>(mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..PART_REPEATS).map(|_| timed(&mut f)).collect();
    median(&times)
}

/// A replica that crashed; its durable directory waits for recovery.
pub struct Crashed {
    closed_loop: ClosedLoop,
    dir: PathBuf,
    order: Vec<usize>,
    files: BTreeMap<usize, String>,
    failures: Vec<String>,
    /// Per child recovery: `recover`, then its parts (snapshot load,
    /// journal load, journal replay), in seconds.
    samples: Vec<[f64; 4]>,
    report: RecoveryReport,
}

fn collect(files: &mut BTreeMap<usize, String>, failures: &mut Vec<String>, f: Finished) {
    match f.outcome.report() {
        Some(r) => {
            files.insert(f.index, r.execution.to_json());
        }
        None => failures.push(format!("replica job {} ended {:?}", f.index, f.outcome.verdict)),
    }
}

impl Crashed {
    /// Runs the replica over `order` until `crash_after_slices` slice
    /// batches ran, measures the checkpoint cost of that state, and drops
    /// the replica.
    pub fn new(
        exec: JobExecutor,
        jobs: &[Job],
        order: &[usize],
        depth: usize,
        crash_after_slices: u64,
        dir: &Path,
        tracer: &Tracer,
    ) -> Result<Crashed, String> {
        let mut report = RecoveryReport::default();
        let (mut files, mut failures) = (BTreeMap::new(), Vec::new());
        let exec = exec.durable_dir(dir).map_err(|e| format!("replica durable dir: {e}"))?;
        let mut closed_loop = ClosedLoop::new(exec, jobs, order, depth);
        while closed_loop.slices < crash_after_slices && !closed_loop.done() {
            closed_loop.step(tracer, &mut |f| collect(&mut files, &mut failures, f));
        }

        // The checkpoint cost of the state at the crash point.
        report.snapshot_build_s = median_of(|| closed_loop.exec.snapshot());
        let snap = tracer.span("snapshot.build", None, || closed_loop.exec.snapshot());
        let probe_path = dir.join("probe-snapshot.json");
        report.snapshot_save_s = median_of(|| save_snapshot(&probe_path, &snap));
        report.snapshot_bytes = std::fs::metadata(&probe_path).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&probe_path);

        // Crash: the replica disappears without a final checkpoint.
        drop(std::mem::replace(&mut closed_loop.exec, JobExecutor::round_robin()));

        let stored: ExecutorSnapshot = load_snapshot(&dir.join("snapshot.json"))
            .map_err(|e| format!("crash snapshot: {e}"))?;
        let journal_path = dir.join(format!("journal-{}.log", stored.epoch));
        report.journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
        let scanned = journal::load(&journal_path).map_err(|e| format!("journal: {e}"))?;
        if scanned.damage.is_some() {
            return Err("crash journal is damaged".to_string());
        }
        report.journal_records = scanned.records.len() as u64;
        Ok(Crashed {
            closed_loop,
            dir: dir.to_path_buf(),
            order: order.to_vec(),
            files,
            failures,
            samples: Vec::new(),
            report,
        })
    }

    /// Times `JobExecutor::recover` on the crash directory `n` times in a
    /// fresh child process. The recovered executors are dropped unused, so
    /// the directory is unchanged.
    pub fn sample(&mut self, n: usize) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let out = std::process::Command::new(exe)
            .arg(CHILD_FLAG)
            .arg(&self.dir)
            .arg(n.to_string())
            .output()
            .map_err(|e| format!("recovery child: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "recovery child failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let parsed: Vec<f64> = line.split(' ').filter_map(|v| v.parse().ok()).collect();
            let sample: [f64; 4] =
                parsed.try_into().map_err(|_| format!("recovery child said {line:?}"))?;
            self.samples.push(sample);
        }
        Ok(())
    }

    /// Recovers for real, finishes the prefix and compares every execution
    /// file with the uncrashed run's.
    pub fn finish(
        mut self,
        uncrashed: &BTreeMap<usize, String>,
        tracer: &Tracer,
    ) -> Result<RecoveryReport, String> {
        let r = &mut self.report;
        let column =
            |i: usize| lower_quartile(&self.samples.iter().map(|s| s[i]).collect::<Vec<_>>());
        r.snapshot_load_s = column(1);
        r.journal_load_s = column(2);
        r.journal_replay_s = column(3);
        r.recover_s = column(0);
        r.recover_samples = self.samples.len();

        // Checkpoints are off for the rest of the prefix: the cadence does
        // not change results, and large running sessions make them slow.
        self.closed_loop.exec = JobExecutor::recover(&self.dir)
            .map_err(|e| format!("recover: {e}"))?
            .checkpoint_every(u64::MAX);
        let (files, failures) = (&mut self.files, &mut self.failures);
        while !self.closed_loop.done() {
            self.closed_loop.step(tracer, &mut |f| collect(files, failures, f));
        }
        r.total_slices = self.closed_loop.slices;
        for &index in &self.order {
            r.compared += 1;
            match (files.get(&index), uncrashed.get(&index)) {
                (Some(a), Some(b)) if a == b => {}
                (Some(_), Some(_)) => {
                    failures.push(format!("job {index}: recovered execution file differs"))
                }
                _ => failures.push(format!("job {index}: no execution file to compare")),
            }
        }
        r.mismatches = std::mem::take(failures);
        Ok(self.report)
    }
}

/// First argument of a recovery child process.
pub const CHILD_FLAG: &str = "--recover-child";

/// The recovery child: `--recover-child <durable dir> <n>` recovers the
/// directory `n` times and prints, one line each, the time of the recovery
/// and of its three parts in seconds.
pub fn child_main(args: &[String]) -> i32 {
    let (Some(dir), Some(n)) = (args.first(), args.get(1).and_then(|n| n.parse::<usize>().ok()))
    else {
        eprintln!("usage: {CHILD_FLAG} <durable dir> <n>");
        return 2;
    };
    let dir = Path::new(dir);
    for _ in 0..n {
        match child_sample(dir) {
            Ok([recover, snapshot, journal, replay]) => {
                println!("{recover} {snapshot} {journal} {replay}")
            }
            Err(e) => {
                eprintln!("recover {}: {e}", dir.display());
                return 1;
            }
        }
    }
    0
}

/// One recovery of `dir`, then each of its parts on its own.
fn child_sample(dir: &Path) -> Result<[f64; 4], String> {
    let t0 = Instant::now();
    let exec = JobExecutor::recover(dir).map_err(|e| e.to_string())?;
    let recover = t0.elapsed().as_secs_f64();
    drop(exec);
    let t0 = Instant::now();
    let stored: ExecutorSnapshot =
        load_snapshot(&dir.join("snapshot.json")).map_err(|e| e.to_string())?;
    let snapshot = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let scanned = journal::load(&dir.join(format!("journal-{}.log", stored.epoch)))
        .map_err(|e| e.to_string())?;
    let journal = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let replayed = Recovery::replay(&stored, &scanned.records).map_err(|e| e.to_string())?;
    let replay = t0.elapsed().as_secs_f64();
    drop(replayed);
    Ok([recover, snapshot, journal, replay])
}
