//! Medians and guarded percentiles.

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with its sample count.
pub struct Percentile {
    pub value: Option<f64>,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p < 1). Reported as missing, never
/// estimated, when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Percentile { value: None, samples: n, beyond };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Percentile { value: Some(v[rank - 1]), samples: n, beyond }
}

/// The lower quartile (nearest rank) of repeated timings of one identical
/// operation: it stays in the fast mode as long as a quarter of the
/// repetitions do.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 4]
}
