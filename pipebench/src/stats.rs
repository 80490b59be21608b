//! Order statistics used by the benchmark's reports.

/// The three quartile cut points of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method):
/// with `m = len + 1`, cut `i` sits at position `i * m / 4` of the sorted
/// data and interpolates between its two neighbours.
///
/// Returns `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len() as i64;
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4i64) {
        // Clamped integer position j, then the signed remainder delta
        // taken against the clamped j, exactly as CPython does (so the
        // outer cuts extrapolate for very small samples).
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    Some(cuts)
}

/// The median of `values` (mean of the middle two for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// The interquartile mean: the mean of the middle half of `values` (a
/// quarter of the count, rounded down, dropped from each end). Steadier
/// than the median and as indifferent to a few wild rounds. `None` when
/// empty.
pub fn iq_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Sorts `samples` in place and returns its nearest-rank percentile `q`
/// (0..=1); `None` when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method_on_ten_values() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]:
        // m = 11; cut 1 at 11/4 = 2 rem 3 -> (x1*1 + x2*3)/4 = (2 + 9)/4.
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
    }

    #[test]
    fn quartiles_ignore_input_order_and_interpolate() {
        // statistics.quantiles([10, 40, 20, 30], n=4) == [12.5, 25.0, 37.5]:
        // m = 5; cut 1 at 5/4 = 1 rem 1 -> (10*3 + 20*1)/4 = 12.5.
        assert_eq!(quartiles(&[10.0, 40.0, 20.0, 30.0]), Some([12.5, 25.0, 37.5]));
        // Five values: m = 6; cut 1 at 6/4 = 1 rem 2 -> (1 + 2)/2.
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
    }

    #[test]
    fn quartiles_extrapolate_at_the_ends_for_two_values() {
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: cut 1
        // clamps j to 1 and delta = 3 - 4 = -1 -> (1*5 + 3*-1)/4.
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn interquartile_mean_by_hand() {
        // Eight values: two dropped from each end, mean of 3..=6 = 4.5.
        assert_eq!(iq_mean(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]), Some(4.5));
        // Three values: nothing dropped.
        assert_eq!(iq_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        // A wild value at either end does not move it.
        assert_eq!(iq_mean(&[1000.0, 2.0, 3.0, -50.0]), Some(2.5));
        assert_eq!(iq_mean(&[]), None);
    }

    #[test]
    fn median_and_percentiles_by_hand() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let mut samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 0.5), Some(50.0));
        assert_eq!(percentile(&mut samples, 0.99), Some(99.0));
        assert_eq!(percentile(&mut samples, 1.0), Some(100.0));
        assert_eq!(percentile(&mut samples, 0.0), Some(1.0));
    }
}
