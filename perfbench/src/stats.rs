//! Pure metric code: tail-aware percentiles, inter-token latencies
//! rebuilt from the scheduler's step timeline, and the goodput search.
//! Nothing here touches a clock or the engine, so every rule is unit
//! tested on synthetic inputs.

/// Samples that must lie strictly beyond a reported percentile.
const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when there are no samples.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// [`percentile`], but only when at least [`MIN_TAIL_SAMPLES`] samples
/// lie beyond it: a p99 needs 1000 samples, a p50 needs 20.
#[must_use]
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    percentile(samples, q)
}

/// Arithmetic mean (0 for no samples).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of unsorted samples (mean of the middle pair for even
/// counts); 0 for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one scheduler step was, as seen from outside the batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// Prefilled newly admitted requests (running requests wait).
    Prefill,
    /// Advanced every running request by one token.
    Decode,
    /// Did nothing.
    Idle,
}

/// Output-token times of one request, rebuilt from the step timeline.
///
/// `step_end[s]` is the wall time at which step `s` ended (steps are
/// numbered from the batcher's counter; index 0 is unused) and
/// `class[s]` its kind. The first token appears at the end of
/// `first_step`; after that, every `Decode` step up to and including
/// `last_step` emits one more token for every running request.
#[must_use]
pub fn token_times(
    step_end: &[f64],
    class: &[StepClass],
    first_step: u64,
    last_step: u64,
) -> Vec<f64> {
    let first = first_step as usize;
    let last = last_step as usize;
    let mut out = vec![step_end[first]];
    for s in first + 1..=last {
        if class[s] == StepClass::Decode {
            out.push(step_end[s]);
        }
    }
    out
}

/// Gaps between consecutive output tokens.
#[must_use]
pub fn inter_token_gaps(times: &[f64]) -> Vec<f64> {
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Attainment along a ramp: `requests` (offered rate at the request's due
/// time, whether it met both limits), in sending order, cut into
/// consecutive windows of `window` requests. Each window gives its mean
/// offered rate and the share of its requests that met the limits; a
/// last partial window is dropped.
#[must_use]
pub fn ramp_windows(requests: &[(f64, bool)], window: usize) -> Vec<(f64, f64)> {
    requests
        .chunks_exact(window.max(1))
        .map(|w| {
            let n = w.len() as f64;
            let rate = w.iter().map(|r| r.0).sum::<f64>() / n;
            let met = w.iter().filter(|r| r.1).count() as f64 / n;
            (rate, met)
        })
        .collect()
}

/// Highest offered rate whose SLO attainment is at least `target`, from
/// a ramp's `(rate, attainment)` windows in rising rate order: where
/// attainment falls below `target` for the last time, linear between the
/// last window that meets it and the next. A window dented by a stall
/// the engine recovered from does not end the search, because a longer
/// run at that rate would still meet the target. If no window meets it,
/// the first window's rate scaled down by its shortfall; with no
/// windows, 0.
#[must_use]
pub fn goodput(points: &[(f64, f64)], target: f64) -> f64 {
    match points.iter().rposition(|p| p.1 >= target) {
        None => points.first().map_or(0.0, |p| p.0 * p.1 / target),
        Some(i) if i + 1 == points.len() => points[i].0,
        Some(i) => {
            let ((r0, a0), (r1, a1)) = (points[i], points[i + 1]);
            r0 + (a0 - target) / (a0 - a1) * (r1 - r0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.9), Some(90.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 lie beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        // p50 needs 20 samples.
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn itl_rebuilt_from_step_timeline() {
        use StepClass::{Decode as D, Idle as I, Prefill as P};
        // Steps 1..=7: the request's first token comes at the end of
        // step 2 (a prefill); step 4 prefills someone else, so its
        // decode stalls until step 5.
        let class = [I, P, P, D, P, D, D, D];
        let end = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0];
        let times = token_times(&end, &class, 2, 6);
        assert_eq!(times, vec![2.0, 3.0, 11.0, 12.0]);
        assert_eq!(inter_token_gaps(&times), vec![1.0, 8.0, 1.0]);
        // A one-token request has no gaps.
        let one = token_times(&end, &class, 2, 2);
        assert_eq!(one, vec![2.0]);
        assert!(inter_token_gaps(&one).is_empty());
    }

    /// A synthetic attainment curve: flat at 1, then a straight drop
    /// crossing 0.9 at exactly `knee`.
    fn curve(knee: f64) -> impl Fn(f64) -> f64 {
        move |r: f64| {
            if r <= knee * 0.8 {
                1.0
            } else {
                (1.0 - 0.1 * (r - knee * 0.8) / (knee * 0.2)).max(0.0)
            }
        }
    }

    /// `curve` sampled at 40, 45, …, 200.
    fn points(f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
        (0..33)
            .map(|k| 40.0 + 5.0 * f64::from(k))
            .map(|r| (r, f(r)))
            .collect()
    }

    #[test]
    fn ramp_windows_average_rate_and_attainment() {
        let reqs = [
            (10.0, true),
            (20.0, true),
            (30.0, true),
            (40.0, false),
            (50.0, true),
        ];
        assert_eq!(ramp_windows(&reqs, 2), vec![(15.0, 1.0), (35.0, 0.5)]);
        assert!(ramp_windows(&reqs, 6).is_empty());
    }

    #[test]
    fn goodput_finds_the_knee() {
        // Linear between the bracketing points: exact on a linear drop.
        let g = goodput(&points(curve(100.0)), 0.9);
        assert!((g - 100.0).abs() < 1e-9, "{g}");
        // Between sampled rates too.
        let g = goodput(&points(curve(102.0)), 0.9);
        assert!((g - 102.0).abs() < 1e-9, "{g}");
    }

    #[test]
    fn goodput_is_monotone_in_the_knee() {
        let mut last = 0.0;
        for knee in [60.0, 80.0, 100.0, 120.0, 140.0] {
            let g = goodput(&points(curve(knee)), 0.9);
            assert!(g > last, "knee {knee}: {g} <= {last}");
            last = g;
        }
    }

    #[test]
    fn goodput_shrugs_off_one_dented_window() {
        // The knee is at 100; the window at 60 alone reads 0.25.
        let f = curve(100.0);
        let dented = points(|r| if r == 60.0 { 0.25 } else { f(r) });
        let g = goodput(&dented, 0.9);
        assert!((g - 100.0).abs() < 1e-9, "{g}");
    }

    #[test]
    fn goodput_edges() {
        // No point meets the target: the first scaled down.
        assert_eq!(goodput(&[(50.0, 0.45), (60.0, 0.2)], 0.9), 25.0);
        // Everything passes: the last rate.
        assert_eq!(goodput(&[(50.0, 1.0), (200.0, 0.95)], 0.9), 200.0);
        assert_eq!(goodput(&[], 0.9), 0.0);
    }
}
