//! The benchmark's arithmetic: medians, quartiles, tail percentiles and
//! ratios with their bases. Kept separate so the unit tests below pin it.

/// Fewest samples that must lie strictly beyond a reported percentile:
/// a tail figure resting on fewer is one or two outliers, not a tail.
pub const MIN_TAIL: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three cut points of `statistics.quantiles(xs, n=4)` in Python's
/// default (`exclusive`) method, which is what the acceptance spread is
/// computed with.
///
/// # Panics
///
/// Panics with fewer than two samples, as Python raises.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, v.len() - 1);
        let delta = k as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `p` (0 < p < 1): the smallest sample with at
/// least a `p` share of the samples at or below it.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_TAIL`] samples lie beyond the rank, so
/// no reported tail rests on a handful of points.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile outside (0, 1)");
    let n = xs.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL {
        return Err(format!(
            "p{:.0} of {n} samples has {} beyond it; {MIN_TAIL} are needed",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted(xs)[rank - 1])
}

/// A ratio that keeps its base, so reports can say what it is a share of.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Self {
        Self { num, den }
    }

    /// The quotient; 0 for an empty base (nothing was attempted).
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `value (num/den)`, the form every report line uses.
    pub fn describe(self) -> String {
        format!("{:.6} ({}/{})", self.value(), self.num, self.den)
    }
}

/// 64-bit FNV-1a, for result fingerprints.
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNGs so a change to those cannot change the inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A seed for one purpose (`tag`) derived from the run's seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    SplitMix(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 3, 7, 1, 9, 4, 8], n=4) == [3.0, 7.0, 9.0]
        assert_eq!(
            quartiles(&[10.0, 3.0, 7.0, 1.0, 9.0, 4.0, 8.0]),
            [3.0, 7.0, 9.0]
        );
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        assert_eq!(percentile(&xs, 0.5), Ok(50.0));
        // 99 samples put only 9 beyond the p90 rank.
        assert!(percentile(&xs[..99], 0.9).is_err());
        assert_eq!(percentile(&xs[..20], 0.5), Ok(10.0));
        assert!(percentile(&xs[..19], 0.5).is_err());
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(27.0, 66.0);
        assert!((r.value() - 27.0 / 66.0).abs() < 1e-12);
        assert_eq!(r.describe(), "0.409091 (27/66)");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix(derive_seed(7, 1));
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix(derive_seed(7, 1));
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }
}
