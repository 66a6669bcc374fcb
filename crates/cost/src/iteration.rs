//! The pipeline iteration-time model of §4 (Eq. 1).

use dynapipe_model::Micros;

/// Eq. 1: estimated iteration time of a pipeline with `c` stages executing
/// micro-batches with execution times `times`:
///
/// `t_iter = (c-1) · max t(M) + Σ t(M)`
///
/// The `(c-1)·max` term approximates the fill and drain ramps with the
/// longest micro-batch (the exact ramp micro-batches depend on the schedule,
/// which is not known at micro-batching time).
// lint:allow(pub-uncalled): Eq. 1 oracle for dynapipe-schedule's timeline test `uniform_1f1b_matches_eq1_exactly`
pub fn iteration_time(times: &[Micros], c: usize) -> Micros {
    if times.is_empty() {
        return 0.0;
    }
    let max = times.iter().copied().fold(0.0, f64::max);
    let sum: Micros = times.iter().sum();
    (c as f64 - 1.0) * max + sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_is_just_the_sum() {
        assert_eq!(iteration_time(&[10.0, 20.0, 30.0], 1), 60.0);
    }

    #[test]
    fn ramp_pays_c_minus_one_times_max() {
        assert_eq!(iteration_time(&[10.0, 20.0, 30.0], 4), 3.0 * 30.0 + 60.0);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(iteration_time(&[], 8), 0.0);
    }

    #[test]
    fn uniform_micro_batches_match_closed_form() {
        // m equal micro-batches of time t: (c-1)t + mt.
        let times = vec![8.0; 10];
        assert_eq!(iteration_time(&times, 4), 3.0 * 8.0 + 80.0);
    }

    #[test]
    fn splitting_a_long_micro_batch_helps_when_ramp_dominates() {
        // One long micro-batch of 100 vs two of 50 in an 8-stage pipeline:
        // Eq. 1 prefers the split (smaller ramp term), matching the paper's
        // intuition that many small micro-batches shrink the bubble.
        let single = iteration_time(&[100.0], 8);
        let split = iteration_time(&[50.0, 50.0], 8);
        assert!(split < single);
    }
}
