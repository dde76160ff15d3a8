//! Statistics the benchmark reports: nearest-rank percentiles that refuse
//! to report a tail they cannot see, ratios with a stated base, and the
//! failure-rate bound used for `failed_ratio`.

/// The fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before percentile `q` (in `(0, 1)`) has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .expect("some sample count satisfies the rule")
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Nearest-rank percentile `q` of `xs`. The median (`q == 0.5`) is always
/// reported; any higher percentile is `None` unless it has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || (q > 0.5 && beyond(xs.len(), q) < MIN_BEYOND) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// A tail percentile `q` robust to bursts: `xs` (in time order) is cut
/// into consecutive windows of [`samples_needed`]`(q)` samples, so each
/// window's percentile has exactly [`MIN_BEYOND`] samples beyond it, and
/// the median of the window percentiles is reported. A burst of host
/// interference that spoils a minority of windows does not decide the
/// run. `None` until there is one full window.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    let per: Vec<f64> = xs
        .chunks_exact(samples_needed(q))
        .filter_map(|w| percentile(w, q))
        .collect();
    (!per.is_empty()).then(|| median(&per))
}

/// Median of `xs` (0 when empty: a layer that did no work).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(0.0)
}

/// `num / base`, or 0 when the base is 0 (the layer saw no work, so the
/// ratio is empty rather than infinite).
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// Upper end of the 95% Wilson score interval for a failure probability
/// observed as `failed` of `attempted`. Zero failures in `n` attempts
/// reads about `3.84 / n`: the benchmark reports the largest failure rate
/// its checks cannot rule out, which is never 0 and tightens as more
/// outputs are checked.
pub fn failure_bound(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    let z = 1.959_963_984_540_054_f64;
    let n = attempted as f64;
    let p = failed as f64 / n;
    let z2 = z * z;
    let centre = p + z2 / (2.0 * n);
    let spread = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre + spread) / (1.0 + z2 / n)).min(1.0)
}

/// What one checked operation came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Answered, and the answer matched the benchmark's own model.
    Ok,
    /// Refused or errored (an `err` reply, a failed script, a lost
    /// connection).
    Refused,
    /// Answered, but the answer differs from the model.
    Wrong,
}

/// Attempted/failed counts, split by how operations failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub refused: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn record(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Ok => {}
            Verdict::Refused => self.refused += 1,
            Verdict::Wrong => self.wrong += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.wrong
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.wrong += other.wrong;
    }

    /// The reported `failed_ratio` (see [`failure_bound`]).
    pub fn failed_ratio(&self) -> f64 {
        failure_bound(self.failed(), self.attempted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // p90 needs 100 samples (rank 90, ten beyond); p99 needs 1000.
        assert_eq!(samples_needed(0.90), 100);
        assert_eq!(samples_needed(0.99), 1000);
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.90), None, "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        assert_eq!(beyond(100, 0.90), 10);
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.99),
            None,
            "999 samples leave 9 beyond p99"
        );
    }

    #[test]
    fn tail_is_the_median_of_full_windows() {
        assert_eq!(tail(&[1.0; 99], 0.90), None, "no full window of 100 yet");
        // Ten windows of 100; in each the p90 is 90 + window index, but two
        // windows carry a burst of huge values.
        let mut xs = Vec::new();
        for w in 0..10 {
            let burst = w == 3 || w == 7;
            xs.extend((1..=100).map(|i| if burst && i > 40 { 1e6 } else { (i + w) as f64 }));
        }
        let t = tail(&xs, 0.90).unwrap();
        assert!((94.0..=96.0).contains(&t), "bursts in 2 of 10 windows: {t}");
        assert!(
            percentile(&xs, 0.90).unwrap() >= 1e6,
            "the pooled p90 lands in the burst"
        );
        // A trailing partial window is ignored.
        xs.extend([1e9; 50]);
        assert_eq!(tail(&xs, 0.90), Some(t));
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_free() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        assert_eq!(median(&[]), 0.0);
        let many: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(989.0));
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn ratio_is_against_the_named_base() {
        assert_eq!(
            ratio(30.0, 10.0),
            3.0,
            "numerator over base, not the reverse"
        );
        assert_eq!(ratio(5.0, 0.0), 0.0, "an empty base gives an empty ratio");
        // hit ratio: hits over all probes, not hits over misses
        let (hits, misses) = (3.0, 1.0);
        assert_eq!(ratio(hits, hits + misses), 0.75);
    }

    #[test]
    fn failed_ratio_counts_refused_and_wrong_replies() {
        let mut t = Tally::default();
        for v in [Verdict::Ok, Verdict::Refused, Verdict::Wrong, Verdict::Ok] {
            t.record(v);
        }
        assert_eq!(t.attempted, 4);
        assert_eq!((t.refused, t.wrong, t.failed()), (1, 1, 2));
        let mut u = Tally::default();
        u.record(Verdict::Refused);
        t.add(u);
        assert_eq!((t.attempted, t.failed()), (5, 3));
        // A wrong answer and a refusal weigh the same.
        let mut a = Tally::default();
        let mut b = Tally::default();
        a.record(Verdict::Wrong);
        b.record(Verdict::Refused);
        assert_eq!(a.failed_ratio(), b.failed_ratio());
    }

    #[test]
    fn failure_bound_is_never_zero_and_tracks_the_rate() {
        let clean = failure_bound(0, 1000);
        assert!(
            clean > 0.0 && clean < 0.004,
            "0/1000 reads ~3.84/1000: {clean}"
        );
        assert!(
            failure_bound(0, 10_000) < clean,
            "more checks, tighter bound"
        );
        assert!(failure_bound(1, 1000) > clean, "a failure raises the bound");
        let half = failure_bound(500, 1000);
        assert!(half > 0.5 && half < 0.54, "{half}");
        assert_eq!(failure_bound(0, 0), 1.0, "nothing checked proves nothing");
        assert!(failure_bound(10, 10) <= 1.0);
    }
}
