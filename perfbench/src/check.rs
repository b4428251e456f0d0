//! The correctness gate and the exact counts every verified job yields.

use crate::jobs::Job;
use crate::trace::Tracer;
use esd_core::{JobOutcome, JobVerdict, SynthesisReport};
use esd_playback::play;
use esd_symex::SearchStats;
use std::collections::BTreeMap;

/// Counts that must repeat exactly for the same job list.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchCounts {
    pub steps: u64,
    pub solver_queries: u64,
    pub states_created: u64,
    pub states_pruned: u64,
    pub max_live_states: u64,
    pub branches_pruned_static: u64,
    pub solver_queries_saved: u64,
    pub preemptions_pruned_static: u64,
}

impl SearchCounts {
    pub fn of(stats: &SearchStats) -> Self {
        SearchCounts {
            steps: stats.steps,
            solver_queries: stats.solver_queries,
            states_created: stats.states_created,
            states_pruned: stats.states_pruned,
            max_live_states: stats.max_live_states as u64,
            branches_pruned_static: stats.branches_pruned_static,
            solver_queries_saved: stats.solver_queries_saved,
            preemptions_pruned_static: stats.preemptions_pruned_static,
        }
    }

    /// Sums over jobs (`max_live_states` takes the maximum).
    pub fn add(&mut self, o: &SearchCounts) {
        self.steps += o.steps;
        self.solver_queries += o.solver_queries;
        self.states_created += o.states_created;
        self.states_pruned += o.states_pruned;
        self.max_live_states = self.max_live_states.max(o.max_live_states);
        self.branches_pruned_static += o.branches_pruned_static;
        self.solver_queries_saved += o.solver_queries_saved;
        self.preemptions_pruned_static += o.preemptions_pruned_static;
    }

    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("symex.steps", self.steps),
            ("symex.solver_queries", self.solver_queries),
            ("symex.states_created", self.states_created),
            ("symex.states_pruned", self.states_pruned),
            ("symex.max_live_states", self.max_live_states),
            ("symex.branches_pruned_static", self.branches_pruned_static),
            ("symex.solver_queries_saved", self.solver_queries_saved),
            ("symex.preemptions_pruned_static", self.preemptions_pruned_static),
        ]
    }
}

/// A job whose execution file passed every check.
pub struct Verified {
    pub exec_json: String,
    pub counts: SearchCounts,
}

/// The gate: the job was found, its execution file replays, and a
/// generated bug's execution matches the injected ground truth.
pub fn verify(
    job: &Job,
    index: usize,
    outcome: &JobOutcome,
    tracer: &Tracer,
) -> Result<Verified, String> {
    if outcome.verdict != JobVerdict::Found {
        return Err(format!("{}: verdict {:?}", job.label, outcome.verdict));
    }
    let report = outcome.report().ok_or_else(|| format!("{}: Found without report", job.label))?;
    verify_report(job, index, report, tracer)
}

pub fn verify_report(
    job: &Job,
    index: usize,
    report: &SynthesisReport,
    tracer: &Tracer,
) -> Result<Verified, String> {
    let exec_json = tracer.span("execfile.to_json", Some(index), || report.execution.to_json());
    let replay =
        tracer.span("playback.replay", Some(index), || play(&job.program, &report.execution));
    if !replay.reproduced {
        return Err(format!("{}: execution file does not replay", job.label));
    }
    if let Some(truth) = &job.truth {
        truth
            .matches(&report.execution)
            .map_err(|e| format!("{}: ground truth: {e}", job.label))?;
    }
    Ok(Verified { exec_json, counts: SearchCounts::of(&report.stats) })
}

/// The exact counts of one run, checked against every earlier run of the
/// same build, workload, seed and job count.
pub struct ExactCounts {
    values: BTreeMap<String, u64>,
}

impl ExactCounts {
    pub fn new() -> Self {
        ExactCounts { values: BTreeMap::new() }
    }

    pub fn set(&mut self, name: &str, value: u64) {
        self.values.insert(name.to_string(), value);
    }

    /// Compares with the counts file at `path` (values present in both must
    /// match), then writes the union back. Returns every mismatch.
    pub fn check_and_record(&self, path: &std::path::Path) -> Vec<String> {
        let mut stored: BTreeMap<String, u64> = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                if let Some((k, v)) = line.split_once(' ') {
                    if let Ok(v) = v.parse() {
                        stored.insert(k.to_string(), v);
                    }
                }
            }
        }
        let mut mismatches = Vec::new();
        for (k, v) in &self.values {
            match stored.get(k) {
                Some(old) if old != v => {
                    mismatches.push(format!("{k}: {v} now, {old} in an earlier run"))
                }
                _ => {
                    stored.insert(k.clone(), *v);
                }
            }
        }
        let text: String = stored.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        if let Err(e) = std::fs::write(path, text) {
            mismatches.push(format!("cannot write {}: {e}", path.display()));
        }
        mismatches
    }
}
