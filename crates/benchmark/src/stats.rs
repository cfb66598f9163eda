//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed by a script over the same numbers.

/// The samples sorted ascending, with non-finite values dropped.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(n=4)`. One sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return v.first().map(|&x| (x, x));
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The nearest-rank `p`-quantile (`0 < p < 1`), reported only when at
/// least ten samples lie above it; a tail percentile resting on fewer
/// samples says nothing about the tail.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| v[rank - 1])
}
