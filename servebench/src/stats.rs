//! Order statistics and the rate search's bracket: pure arithmetic,
//! unit-tested without a coordinator.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile levels a tail figure may be reported at, highest first.
const TAIL_LEVELS: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q * n)`. `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank(sorted.len(), q);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of level `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest standard level whose nearest-rank percentile has at
/// least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// median does not.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// A tail figure: the value, the level it was taken at, and the sample
/// count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub level: f64,
    pub samples: usize,
}

impl Tail {
    /// Human label, e.g. `p99 of 1050 (10 beyond)`.
    pub fn describe(&self) -> String {
        format!(
            "p{} of {} ({} beyond)",
            self.level * 100.0,
            self.samples,
            beyond(self.samples, self.level)
        )
    }
}

/// The tail of an ascending slice at [`tail_level`]; `None` when the
/// sample cannot support even a median with ten samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let level = tail_level(sorted.len())?;
    Some(Tail {
        value: percentile(sorted, level)?,
        level,
        samples: sorted.len(),
    })
}

/// Median of an unsorted slice (mean of the middle pair for even
/// lengths); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Sorts a sample ascending (NaN-free input assumed; total order used).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The sustainable-rate bracket: ramp geometrically from a start rate
/// until a rung is unstable, then bisect (geometric midpoint) between
/// the highest stable and the lowest unstable rate until they are
/// within `tolerance` of each other.
#[derive(Debug, Clone)]
pub struct Bracket {
    start: f64,
    factor: f64,
    tolerance: f64,
    floor: f64,
    ceiling: f64,
    lo: Option<f64>,
    hi: Option<f64>,
}

impl Bracket {
    /// A bracket starting at `start`, ramping by `factor`, finished
    /// once `hi / lo <= tolerance`, searching within `[floor, ceiling]`.
    pub fn new(start: f64, factor: f64, tolerance: f64, floor: f64, ceiling: f64) -> Bracket {
        assert!(factor > 1.0 && tolerance > 1.0 && floor > 0.0 && floor <= ceiling);
        Bracket {
            start: start.clamp(floor, ceiling),
            factor,
            tolerance,
            floor,
            ceiling,
            lo: None,
            hi: None,
        }
    }

    /// The next rate to try, or `None` when the search is finished.
    pub fn next_rate(&self) -> Option<f64> {
        match (self.lo, self.hi) {
            (None, None) => Some(self.start),
            // Still ramping up: the ceiling is the last rung.
            (Some(lo), None) => (lo < self.ceiling).then(|| (lo * self.factor).min(self.ceiling)),
            // Everything so far unstable: step down to the floor.
            (None, Some(hi)) => (hi > self.floor).then(|| (hi / self.factor).max(self.floor)),
            (Some(lo), Some(hi)) => (hi / lo > self.tolerance).then(|| (lo * hi).sqrt()),
        }
    }

    /// Records a rung's verdict.
    pub fn record(&mut self, rate: f64, stable: bool) {
        if stable {
            self.lo = Some(self.lo.map_or(rate, |lo| lo.max(rate)));
        } else {
            self.hi = Some(self.hi.map_or(rate, |hi| hi.min(rate)));
        }
    }

    /// The highest rate found stable (the sustainable rate), if any.
    pub fn sustainable(&self) -> Option<f64> {
        self.lo
    }

    /// The lowest rate found unstable, if any.
    pub fn unstable(&self) -> Option<f64> {
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000: rank 990, 10 beyond — allowed.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_level(1000), Some(0.99));
        // 999 samples: rank 990, 9 beyond — falls back to p95.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_level(999), Some(0.95));
        // p99.9 needs 10,000.
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(9_999), Some(0.99));
        // 150 samples support p90 (15 beyond) but not p95 (7 beyond).
        assert_eq!(tail_level(150), Some(0.9));
        // The median itself needs 20 samples.
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(19), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("supported");
        assert_eq!((t.value, t.level, t.samples), (990.0, 0.99, 1000));
        assert!(t.describe().contains("10 beyond"));
    }

    fn run(bracket: &mut Bracket, knee: f64) -> Vec<f64> {
        let mut tried = Vec::new();
        while let Some(rate) = bracket.next_rate() {
            tried.push(rate);
            bracket.record(rate, rate <= knee);
            assert!(tried.len() < 64, "search must terminate");
        }
        tried
    }

    #[test]
    fn bracket_ramps_then_bisects_to_tolerance() {
        let mut b = Bracket::new(100.0, 1.5, 1.055, 1.0, 10_000.0);
        let tried = run(&mut b, 400.0);
        // Ramp 100, 150, 225, 337.5, 506.25 (first unstable) ...
        assert_eq!(&tried[..5], &[100.0, 150.0, 225.0, 337.5, 506.25]);
        let (lo, hi) = (b.sustainable().unwrap(), b.unstable().unwrap());
        assert!(lo <= 400.0 && hi > 400.0, "knee bracketed: {lo}..{hi}");
        assert!(hi / lo <= 1.055, "within tolerance: {lo}..{hi}");
        // ... then three bisections close a 1.5x bracket to 1.5^(1/8).
        assert_eq!(tried.len(), 8);
    }

    #[test]
    fn bracket_steps_down_when_start_is_unstable() {
        let mut b = Bracket::new(100.0, 2.0, 1.05, 1.0, 1000.0);
        run(&mut b, 30.0);
        let (lo, hi) = (b.sustainable().unwrap(), b.unstable().unwrap());
        assert!(lo <= 30.0 && hi > 30.0 && hi / lo <= 1.05);
    }

    #[test]
    fn bracket_stops_at_its_limits() {
        // Never unstable: ends at the ceiling with no unstable rung.
        let mut b = Bracket::new(100.0, 2.0, 1.05, 1.0, 300.0);
        let tried = run(&mut b, f64::INFINITY);
        assert_eq!(tried, vec![100.0, 200.0, 300.0]);
        assert_eq!((b.sustainable(), b.unstable()), (Some(300.0), None));
        // Never stable: ends at the floor with no stable rung.
        let mut b = Bracket::new(100.0, 2.0, 1.05, 20.0, 300.0);
        let tried = run(&mut b, 0.0);
        assert_eq!(tried, vec![100.0, 50.0, 25.0, 20.0]);
        assert_eq!((b.sustainable(), b.unstable()), (None, Some(20.0)));
    }
}
