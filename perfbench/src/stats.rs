//! Sample statistics for the report: medians, the tail percentile the
//! benchmark may quote, and the failure fraction.

/// Percentiles the report may quote for a tail, highest first.
const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie beyond a quoted tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The median of batch means: the samples, in order, split into at most
/// `max_batches` consecutive batches of near-equal size, each reduced to
/// its mean. With `max_batches` or fewer samples every batch holds one
/// sample and this is the plain median.
///
/// Campaign times that land on discrete steps (the engine's 200 ms
/// watchdog tail) make the plain median jump a whole step when half the
/// campaigns cross one; a batch mean counts how many crossed.
pub fn batched_median(samples: &[f64], max_batches: usize) -> Option<f64> {
    let n = samples.len();
    let b = n.min(max_batches.max(1));
    let means: Vec<f64> = (0..b)
        .map(|i| {
            let batch = &samples[i * n / b..(i + 1) * n / b];
            batch.iter().sum::<f64>() / batch.len() as f64
        })
        .collect();
    median(&means)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples above its nearest-rank position, with its
/// value; `None` when the run holds too few samples for any of them.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(samples);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        // Nearest rank, 1-based: ceil(pct / 100 * n).
        let rank = (pct as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (pct, s[rank - 1]))
    })
}

/// Failed campaigns as a share of those attempted (0 when none ran).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [0.812, 0.612, 0.612, 1.012, 0.812];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
        assert_eq!(median(&a), Some(0.812));
    }

    #[test]
    fn batched_median_is_the_median_for_few_samples() {
        assert_eq!(batched_median(&[], 10), None);
        assert_eq!(batched_median(&[7.0, 1.0, 3.0], 10), Some(3.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(batched_median(&ten, 10), median(&ten));
    }

    #[test]
    fn batched_median_counts_step_crossings() {
        // Twenty campaigns on 0.6 s and 0.4 s steps, 45 % of them fast:
        // the plain median sits on the slow step, the batch means see
        // the mix.
        let walls: Vec<f64> = (0..20).map(|i| if i < 9 { 0.4 } else { 0.6 }).collect();
        assert_eq!(median(&walls), Some(0.6));
        let batched = batched_median(&walls, 10).unwrap();
        assert!(batched > 0.4 && batched < 0.6, "{batched}");
        // Uneven split: 23 samples into 10 batches covers every sample.
        let ones = vec![1.0; 23];
        assert_eq!(batched_median(&ones, 10), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten), None, "ten samples leave none beyond any rank");
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50, 10.0)));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&forty), Some((75, 30.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99, 990.0)));
    }

    #[test]
    fn tail_counts_samples_strictly_beyond_the_rank() {
        // n = 21: p75 sits at rank 16 with only 5 beyond; p50 at rank 11
        // has exactly 10 beyond.
        let s: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&s), Some((50, 11.0)));
    }

    #[test]
    fn failed_frac_counts_against_attempted() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 7), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
    }
}
