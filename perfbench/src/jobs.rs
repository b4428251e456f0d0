//! Job lists: every workload is a fixed list of jobs generated from the
//! workload seed. The same (workload, seed, job count) always yields the
//! same programs in the same order.

use esd_core::{EsdOptions, JobSpec};
use esd_ir::Program;
use esd_service::JobRequest;
use esd_symex::GoalSpec;
use esd_workloads::genbug::{generate, GenConfig, GenSize, GroundTruth, InjectedBugKind};
use esd_workloads::{all_real_bugs, generate_bpf, BpfConfig};

/// The three workloads, each loading a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BPF deadlock programs on a branch-count ladder: the static phase.
    BpfLadder,
    /// Medium genbug programs over all four bug kinds: the dynamic search.
    GenbugSearch,
    /// Small jobs through the daemon and a durable executor: wire and
    /// durability.
    ServiceDurable,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bpf-ladder" => Some(Workload::BpfLadder),
            "genbug-search" => Some(Workload::GenbugSearch),
            "service-durable" => Some(Workload::ServiceDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BpfLadder => "bpf-ladder",
            Workload::GenbugSearch => "genbug-search",
            Workload::ServiceDurable => "service-durable",
        }
    }

    /// Jobs per second of `--seconds` (a fixed calibration, never a
    /// measurement): the job count is a pure function of the arguments.
    fn jobs_per_second(self) -> f64 {
        match self {
            Workload::BpfLadder => 7.5,
            Workload::GenbugSearch => 3.0,
            Workload::ServiceDurable => 18.0,
        }
    }

    /// The job count for a run of `seconds`: never below the 100 jobs a
    /// p90 needs to keep 10 samples beyond it.
    pub fn job_count(self, seconds: u64) -> usize {
        ((self.jobs_per_second() * seconds as f64).round() as usize).max(100)
    }

    /// The job mix as (tier, share of the list). Shares are chosen so that
    /// p50 and p90 each fall well inside one tier of the sorted latencies.
    fn mix(self) -> &'static [(Tier, f64)] {
        match self {
            // Sorted by latency: 256 ranks 1-60 % (p50 inside), 512 ranks
            // 61-96 % (p90 inside), 1024 and 2048 above.
            Workload::BpfLadder => &[
                (Tier::Bpf(256), 0.60),
                (Tier::Bpf(512), 0.36),
                (Tier::Bpf(1024), 0.03),
                (Tier::Bpf(2048), 0.01),
            ],
            // deadlock ranks 1-30 %, crash/OOB 31-70 % (p50 in the middle),
            // race 71-100 % (p90 in the middle).
            Workload::GenbugSearch => &[
                (Tier::Gen(InjectedBugKind::AbbaDeadlock), 0.30),
                (Tier::Gen(InjectedBugKind::CrashOnPath), 0.20),
                (Tier::Gen(InjectedBugKind::OutOfBounds), 0.20),
                (Tier::Gen(InjectedBugKind::DataRace), 0.30),
            ],
            // Real-bug analogs ranks 1-30 %, small race jobs 31-84 % (p50 in
            // the middle), 256-branch BPF with 113 KB submit frames 85-99 %
            // (p90), 512-branch BPF (225 KB frames) above.
            Workload::ServiceDurable => &[
                (Tier::RealBug, 0.30),
                (Tier::Small(InjectedBugKind::DataRace), 0.54),
                (Tier::Bpf(256), 0.15),
                (Tier::Bpf(512), 0.01),
            ],
        }
    }

    /// The untimed warm-up job of every set-up: built from a fixed seed,
    /// so set-up work does not depend on the workload seed.
    pub fn warmup_job(self) -> Job {
        let tier = match self {
            Workload::BpfLadder => Tier::Bpf(256),
            Workload::GenbugSearch => Tier::Gen(InjectedBugKind::CrashOnPath),
            Workload::ServiceDurable => Tier::RealBug,
        };
        make_job(tier, 0, 0, 0)
    }

    /// The crash-recovery replica runs the first jobs of this tier: jobs
    /// whose cost barely depends on the seed, so the crash state is about
    /// the same size in every run.
    pub fn recovery_tier(self) -> Tier {
        match self {
            Workload::BpfLadder => Tier::Bpf(256),
            Workload::GenbugSearch => Tier::Gen(InjectedBugKind::AbbaDeadlock),
            Workload::ServiceDurable => Tier::RealBug,
        }
    }
}

/// A size or kind class of jobs; latency percentiles are placed inside
/// one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Bpf(u32),
    Gen(InjectedBugKind),
    Small(InjectedBugKind),
    RealBug,
}

impl Tier {
    pub fn name(self) -> String {
        match self {
            Tier::Bpf(b) => format!("bpf{b}"),
            Tier::Gen(kind) => format!("gen-{}", kind.slug()),
            Tier::Small(kind) => format!("small-{}", kind.slug()),
            Tier::RealBug => "real-bug".to_string(),
        }
    }
}

/// One bug report to synthesize an execution for.
pub struct Job {
    pub label: String,
    pub tier: Tier,
    pub program: Program,
    pub goal: GoalSpec,
    pub options: EsdOptions,
    /// Ground truth for generated bugs (checked with `GroundTruth::matches`).
    pub truth: Option<GroundTruth>,
}

impl Job {
    pub fn spec(&self) -> JobSpec {
        JobSpec::new(self.label.clone(), &self.program, self.goal.clone())
            .options(self.options.clone())
    }

    pub fn request(&self) -> JobRequest {
        JobRequest::new(self.label.clone(), &self.program, self.goal.clone())
            .options(self.options.clone())
    }
}

/// SplitMix64: a tiny, stable PRNG so job lists never depend on a
/// library's generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5EED_E5D0_B3AC_4A11)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Per-tier counts for `n` jobs: exact quotas (largest remainder), so every
/// run of a workload has the same tier proportions.
fn quotas(mix: &[(Tier, f64)], n: usize) -> Vec<(Tier, usize)> {
    let mut counts: Vec<(Tier, usize, f64)> = mix
        .iter()
        .map(|&(t, share)| {
            let exact = share * n as f64;
            (t, exact.floor() as usize, exact - exact.floor())
        })
        .collect();
    let mut left = n - counts.iter().map(|c| c.1).sum::<usize>();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| counts[b].2.total_cmp(&counts[a].2).then(a.cmp(&b)));
    for i in order {
        if left == 0 {
            break;
        }
        counts[i].1 += 1;
        left -= 1;
    }
    counts.into_iter().map(|(t, c, _)| (t, c)).collect()
}

/// The tier sequence of a workload's job list: quotas, shuffled by the
/// seed (Fisher-Yates).
pub fn tier_list(workload: Workload, seed: u64, n: usize) -> Vec<Tier> {
    let mut tiers: Vec<Tier> = quotas(workload.mix(), n)
        .into_iter()
        .flat_map(|(t, c)| std::iter::repeat_n(t, c))
        .collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..tiers.len()).rev() {
        let j = rng.below(i + 1);
        tiers.swap(i, j);
    }
    tiers
}

/// Builds job `index` of a list, the `nth` job of its tier. Generated
/// programs take their seed from the workload seed and the index; real-bug
/// analogs cycle through the fixed set in order, so the first jobs of that
/// tier are the same in every list.
pub fn make_job(tier: Tier, seed: u64, index: usize, nth: usize) -> Job {
    let job_seed = SplitMix::new(seed ^ (index as u64).wrapping_mul(0x1000_0000_01B3)).next();
    let label = format!("{}#{index}", tier.name());
    let default_options = || EsdOptions::builder().max_steps(5_000_000).build();
    match tier {
        Tier::Bpf(branches) => {
            // The generator's default knobs (64 input-dependent branches,
            // 2 threads, 2 locks): branch count scales the static phase.
            let w = generate_bpf(&BpfConfig {
                branches,
                seed: job_seed % 1_000_000,
                ..BpfConfig::default()
            });
            Job {
                label,
                tier,
                goal: w.goal(),
                program: w.program,
                options: default_options(),
                truth: None,
            }
        }
        Tier::Gen(kind) | Tier::Small(kind) => {
            let size =
                if matches!(tier, Tier::Gen(_)) { GenSize::medium() } else { GenSize::small() };
            let g = generate(&GenConfig { seed: job_seed % 1_000_000, kind, size });
            let options = EsdOptions::builder()
                .max_steps(5_000_000)
                .with_race_detection(g.truth.needs_race_preemptions)
                .build();
            Job {
                label,
                tier,
                goal: g.truth.goal.clone(),
                program: g.program,
                options,
                truth: Some(g.truth),
            }
        }
        Tier::RealBug => {
            let mut bugs = all_real_bugs();
            let w = bugs.swap_remove(nth % bugs.len());
            Job {
                label,
                tier,
                goal: w.goal(),
                program: w.program,
                options: default_options(),
                truth: None,
            }
        }
    }
}

/// The full job list of a workload.
pub fn job_list(workload: Workload, seed: u64, n: usize) -> Vec<Job> {
    let tiers = tier_list(workload, seed, n);
    let mut jobs = Vec::with_capacity(n);
    for (i, &tier) in tiers.iter().enumerate() {
        let nth = tiers[..i].iter().filter(|&&t| t == tier).count();
        jobs.push(make_job(tier, seed, i, nth));
    }
    jobs
}
