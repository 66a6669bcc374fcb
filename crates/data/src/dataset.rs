//! Dataset synthesis and length statistics.

use crate::sample::Sample;
use crate::tasks::{flanv2_registry, TaskSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hard cap on generated sequence lengths, matching the paper's Fig. 1b
/// truncation of the FLANv2 histogram.
pub const MAX_GENERATED_LEN: usize = 65536;

/// A synthetic multi-task dataset: a task registry plus sampled lengths.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The generating task registry.
    pub tasks: Vec<TaskSpec>,
    /// All samples, in generation (i.e. shuffled mixture) order.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Generate a FLANv2-like dataset of `n` samples with the given seed.
    ///
    /// Samples are drawn i.i.d. from the task mixture, so the sample order
    /// is already a valid random training order (the paper down-samples
    /// FLANv2 to 100K samples the same way).
    pub fn flanv2(seed: u64, n: usize) -> Self {
        let tasks = flanv2_registry();
        let mut rng = StdRng::seed_from_u64(seed);
        let total_weight: f64 = tasks.iter().map(|t| t.weight).sum();
        let mut samples = Vec::with_capacity(n);
        for id in 0..n {
            // Pick a task by mixture weight.
            let mut pick = rng.gen::<f64>() * total_weight;
            let mut task_idx = 0;
            for (i, t) in tasks.iter().enumerate() {
                if pick < t.weight {
                    task_idx = i;
                    break;
                }
                pick -= t.weight;
            }
            let t = &tasks[task_idx];
            let input_len = t
                .input_dist
                .sample_from_z(standard_normal(&mut rng))
                .min(MAX_GENERATED_LEN);
            let target_len = t
                .target_dist
                .sample_from_z(standard_normal(&mut rng))
                .min(MAX_GENERATED_LEN);
            samples.push(Sample {
                id: id as u64,
                task: task_idx,
                input_len,
                target_len,
            });
        }
        Dataset { tasks, samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total non-padding tokens across the dataset, after truncating every
    /// sample to `max_seq_len`.
    pub fn total_tokens(&self, max_seq_len: usize) -> u64 {
        self.samples
            .iter()
            .map(|s| s.truncated(max_seq_len).total_tokens() as u64)
            .sum()
    }

    /// Statistics over input lengths.
    pub fn input_stats(&self) -> LengthStats {
        LengthStats::from_lengths(self.samples.iter().map(|s| s.input_len))
    }

    /// Histogram of input lengths in power-of-two buckets
    /// `[1,2), [2,4), ... [2^k, 2^{k+1})`, as (bucket upper bound, count).
    pub fn length_histogram(&self) -> Vec<(usize, usize)> {
        let mut buckets = [0usize; 18]; // up to 2^17 = 131072
        for s in &self.samples {
            let b = (usize::BITS - (s.input_len.max(1)).leading_zeros()) as usize;
            let b = b.min(buckets.len() - 1);
            buckets[b] += 1;
        }
        buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (1usize << i, c))
            .filter(|&(_, c)| c > 0)
            .collect()
    }
}

/// Summary statistics over a set of sequence lengths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LengthStats {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean length.
    pub mean: f64,
    /// Minimum length.
    pub min: usize,
    /// Maximum length.
    pub max: usize,
    /// Median (50th percentile).
    pub p50: usize,
    /// 99th percentile.
    pub p99: usize,
}

impl LengthStats {
    /// Compute statistics from an iterator of lengths.
    pub fn from_lengths(lengths: impl Iterator<Item = usize>) -> Self {
        let mut v: Vec<usize> = lengths.collect();
        if v.is_empty() {
            return LengthStats {
                count: 0,
                mean: 0.0,
                min: 0,
                max: 0,
                p50: 0,
                p99: 0,
            };
        }
        v.sort_unstable();
        let count = v.len();
        let sum: u64 = v.iter().map(|&x| x as u64).sum();
        LengthStats {
            count,
            mean: sum as f64 / count as f64,
            min: v[0],
            max: v[count - 1],
            p50: v[count / 2],
            p99: v[(count as f64 * 0.99) as usize % count],
        }
    }

    /// Coefficient of variation proxy: max/mean, the "length variation"
    /// notion the paper's motivation leans on.
    pub fn max_over_mean(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.max as f64 / self.mean
        }
    }
}

/// Draw one standard-normal variate via Box–Muller.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::flanv2(7, 1000);
        let b = Dataset::flanv2(7, 1000);
        assert_eq!(a.samples, b.samples);
        let c = Dataset::flanv2(8, 1000);
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn mixture_has_high_length_variance() {
        // Fig. 1: multi-task mixtures exhibit extreme length variation.
        let d = Dataset::flanv2(42, 20_000);
        let stats = d.input_stats();
        assert!(stats.max_over_mean() > 10.0, "stats: {stats:?}");
        assert!(
            stats.max > 8192,
            "tail should reach long documents: {stats:?}"
        );
        assert!(stats.p50 < 200, "median must be short: {stats:?}");
    }

    #[test]
    fn mean_input_length_in_flanv2_range() {
        let d = Dataset::flanv2(42, 50_000);
        let stats = d.input_stats();
        // Aggregate mean: a few hundred tokens (mostly-short mixture with a
        // heavy tail) — the regime where naive padding wastes >80%.
        assert!(
            (120.0..900.0).contains(&stats.mean),
            "aggregate mean {} outside plausible FLANv2 range",
            stats.mean
        );
    }

    #[test]
    fn histogram_is_log_scale_decaying() {
        let d = Dataset::flanv2(1, 50_000);
        let hist = d.length_histogram();
        let peak_bucket = hist.iter().max_by_key(|&&(_, c)| c).unwrap().0;
        assert!(peak_bucket <= 256, "bulk of mass at short lengths");
        // Tail buckets exist but are orders of magnitude smaller.
        let peak_count = hist.iter().map(|&(_, c)| c).max().unwrap();
        let tail_count: usize = hist
            .iter()
            .filter(|&&(ub, _)| ub >= 16384)
            .map(|&(_, c)| c)
            .sum();
        assert!(tail_count > 0, "tail must exist");
        assert!(tail_count * 20 < peak_count, "tail must be rare");
    }

    #[test]
    fn naive_padding_wastes_most_tokens() {
        // Paper §2.1: naive padding of FLANv2 yields >80% padding. Check the
        // same property for full mini-batches of our mixture.
        let d = Dataset::flanv2(3, 4096);
        let max = d.samples.iter().map(|s| s.gpt_len() as u64).max().unwrap();
        let padded = max * d.len() as u64;
        let actual: u64 = d.samples.iter().map(|s| s.gpt_len() as u64).sum();
        let pad_frac = 1.0 - actual as f64 / padded as f64;
        assert!(pad_frac > 0.8, "padding fraction {pad_frac}");
    }

    #[test]
    fn total_tokens_respects_truncation() {
        let d = Dataset::flanv2(5, 2000);
        let full = d.total_tokens(usize::MAX / 2);
        let truncated = d.total_tokens(512);
        assert!(truncated < full);
        assert!(truncated > 0);
    }

    #[test]
    fn stats_of_empty_and_singleton() {
        let empty = LengthStats::from_lengths(std::iter::empty());
        assert_eq!(empty.count, 0);
        let one = LengthStats::from_lengths(std::iter::once(42));
        assert_eq!(one.mean, 42.0);
        assert_eq!(one.min, 42);
        assert_eq!(one.max, 42);
    }
}
