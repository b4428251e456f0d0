//! The traced layer probe: every job of the list driven directly through
//! the static phase and a synthesis session, so the analysis and symex
//! layers get spans of their own. The executor does the same calls
//! internally, where the benchmark cannot put spans.

use crate::check::{verify_report, SearchCounts};
use crate::jobs::{Job, Tier};
use crate::trace::Tracer;
use esd_analysis::{
    lockorder, racecand, slice, BranchFeasibility, CallGraph, Cfg, CostModel, PointsTo,
    StaticAnalysis, StaticGoalInfo,
};
use esd_core::executor::DEFAULT_SLICE_ROUNDS;
use esd_core::SynthesisSession;
use std::sync::Arc;

/// What the probe saw for one job.
pub struct ProbedJob {
    pub tier: Tier,
    pub insts: usize,
    pub static_s: f64,
    pub counts: SearchCounts,
    pub exec_json: String,
    pub one_sided_branches: u64,
    pub race_pairs: u64,
    pub intermediate_goals: u64,
}

/// Runs the job's layers back to back inside a `probe.job` span (static
/// phase as one call, session construction, search, verification), then
/// each static pass standalone outside it; returns the job's counts and
/// execution file.
pub fn probe(job: &Job, index: usize, tracer: &Tracer) -> Result<ProbedJob, String> {
    let program = Arc::new(job.program.clone());
    let goals = job.goal.primary_locs();
    let mut static_s = 0.0;
    let (analysis, verified) = tracer.span("probe.job", Some(index), || {
        let t0 = std::time::Instant::now();
        let analysis = Arc::new(tracer.span("analysis.static", Some(index), || {
            StaticAnalysis::compute_multi(&program, &goals)
        }));
        static_s = t0.elapsed().as_secs_f64();
        let mut session = tracer.span("symex.engine_new", Some(index), || {
            SynthesisSession::from_parts(
                program.clone(),
                analysis.clone(),
                job.goal.clone(),
                job.options.clone(),
                None,
                0,
            )
        });
        while session.poll().is_running() {
            tracer.span("symex.run_for", Some(index), || {
                session.run_for(DEFAULT_SLICE_ROUNDS);
            });
        }
        let status = session.into_status();
        let report =
            status.found().ok_or_else(|| format!("{}: probe session not found", job.label))?;
        let verified = verify_report(job, index, report, tracer)?;
        Ok::<_, String>((analysis, verified))
    })?;

    // Each pass standalone, fed by the standalone results it depends on.
    let p = &*program;
    let cfgs: Vec<Cfg> = tracer.span("analysis.cfg", Some(index), || {
        p.func_ids().map(|f| Cfg::build(p.func(f), f)).collect()
    });
    let callgraph = tracer.span("analysis.callgraph", Some(index), || CallGraph::build(p));
    let costs = tracer.span("analysis.costs", Some(index), || CostModel::new(p, &cfgs, &callgraph));
    let goal_info = tracer.span("analysis.goal_info", Some(index), || {
        StaticGoalInfo::merge(
            goals.iter().map(|g| StaticGoalInfo::compute(p, &cfgs, &callgraph, *g)).collect(),
        )
    });
    let feasibility = tracer.span("analysis.interval", Some(index), || {
        BranchFeasibility::compute(p, &cfgs, &callgraph)
    });
    let lock_order =
        tracer.span("analysis.lockorder", Some(index), || lockorder::analyze(p, &cfgs, &callgraph));
    let points_to =
        tracer.span("analysis.pointsto", Some(index), || PointsTo::compute(p, &callgraph));
    let races = tracer.span("analysis.racecand", Some(index), || {
        racecand::compute(p, &cfgs, &callgraph, &points_to, &lock_order)
    });
    tracer.span("analysis.slice", Some(index), || {
        slice::compute(p, &callgraph, &points_to, &costs, &goals)
    });
    let one_sided = analysis.branch_feasibility.decided();
    if feasibility.decided() != one_sided
        || races.candidates.len() != analysis.race_candidates.candidates.len()
    {
        return Err(format!("{}: standalone passes disagree with compute_multi", job.label));
    }
    // compute_multi adds lock-order cycle goals for deadlocks, so the
    // standalone goal info is a lower bound.
    if goal_info.intermediate_goals.len() > analysis.goal_info.intermediate_goals.len() {
        return Err(format!("{}: standalone goal info has extra goals", job.label));
    }
    Ok(ProbedJob {
        tier: job.tier,
        insts: job.program.num_insts(),
        static_s,
        counts: verified.counts,
        exec_json: verified.exec_json,
        one_sided_branches: one_sided as u64,
        race_pairs: analysis.race_candidates.candidates.len() as u64,
        intermediate_goals: analysis.goal_info.intermediate_goals.len() as u64,
    })
}

/// log2 of the median static time ratio between the two largest tiers (by
/// program size).
pub fn static_exponent(probed: &[ProbedJob]) -> f64 {
    let mut tiers: Vec<(usize, Tier)> = Vec::new();
    for p in probed {
        if !tiers.iter().any(|(_, t)| *t == p.tier) {
            tiers.push((p.insts, p.tier));
        }
    }
    tiers.sort_by_key(|(insts, _)| std::cmp::Reverse(*insts));
    if tiers.len() < 2 {
        return 0.0;
    }
    let median_of = |tier: Tier| {
        let v: Vec<f64> = probed.iter().filter(|p| p.tier == tier).map(|p| p.static_s).collect();
        crate::stats::median(&v)
    };
    (median_of(tiers[0].1) / median_of(tiers[1].1)).log2()
}
