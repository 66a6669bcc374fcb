//! Task registry: categories, mixture weights and length distributions.
//!
//! FLANv2 groups 1836 tasks into 146 categories. We model a representative
//! family per category class with log-normal length distributions whose
//! means match the statistics the paper quotes (e.g. CNN/DailyMail
//! summarization: mean input 977.73 tokens; MNLI entailment: 51.59) and
//! whose mixture produces the heavy-tailed aggregate of Fig. 1b.

use serde::{Deserialize, Serialize};

/// Broad task category (drives the length distribution shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskCategory {
    /// Single-sentence classification (grammar acceptability, sentiment).
    Classification,
    /// Textual entailment / natural language inference.
    Entailment,
    /// Short-context question answering.
    QuestionAnswering,
    /// Sentence- or paragraph-level translation.
    Translation,
    /// News-article summarization (CNN/DailyMail-like).
    Summarization,
    /// Long-document summarization / information extraction.
    LongDocument,
    /// Multi-turn dialog continuation.
    Dialog,
    /// Reading comprehension over a provided passage.
    ReadingComprehension,
}

/// A log-normal distribution over sequence lengths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LengthDist {
    /// Mean of the underlying normal (`ln` scale).
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
    /// Lower clamp on sampled lengths (tokens).
    pub min_len: usize,
}

impl LengthDist {
    /// Distribution with the given arithmetic mean and log-space sigma.
    pub fn with_mean(mean: f64, sigma: f64, min_len: usize) -> Self {
        // E[lognormal] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
        LengthDist {
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
            min_len,
        }
    }

    /// Sample a length given two independent standard-normal draws is not
    /// needed; we take one `z ~ N(0,1)` from the caller's RNG adapter.
    pub fn sample_from_z(&self, z: f64) -> usize {
        let len = (self.mu + self.sigma * z).exp();
        (len.round() as usize).max(self.min_len)
    }
}

/// A task family in the synthetic mixture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Category (for reporting and mixture analysis).
    pub category: TaskCategory,
    /// Mixture weight (relative sampling proportion).
    pub weight: f64,
    /// Input (encoder) length distribution.
    pub input_dist: LengthDist,
    /// Target (decoder) length distribution.
    pub target_dist: LengthDist,
}

/// The FLANv2-like task registry used throughout the reproduction.
///
/// Weights skew heavily toward short tasks (classification, entailment, QA)
/// with a minority of long-context tasks — matching Fig. 1b, where counts
/// fall roughly geometrically with length but the tail extends to 65536.
pub fn flanv2_registry() -> Vec<TaskSpec> {
    vec![
        TaskSpec {
            name: "grammar_acceptability",
            category: TaskCategory::Classification,
            weight: 14.0,
            input_dist: LengthDist::with_mean(45.0, 0.45, 8),
            target_dist: LengthDist::with_mean(3.0, 0.3, 1),
        },
        TaskSpec {
            name: "sentiment",
            category: TaskCategory::Classification,
            weight: 12.0,
            input_dist: LengthDist::with_mean(85.0, 0.6, 10),
            target_dist: LengthDist::with_mean(3.0, 0.3, 1),
        },
        TaskSpec {
            name: "mnli_entailment",
            category: TaskCategory::Entailment,
            weight: 16.0,
            // Paper: MNLI mean input length 51.59 tokens.
            input_dist: LengthDist::with_mean(51.6, 0.5, 8),
            target_dist: LengthDist::with_mean(3.0, 0.3, 1),
        },
        TaskSpec {
            name: "closed_book_qa",
            category: TaskCategory::QuestionAnswering,
            weight: 13.0,
            input_dist: LengthDist::with_mean(35.0, 0.5, 6),
            target_dist: LengthDist::with_mean(8.0, 0.6, 1),
        },
        TaskSpec {
            name: "open_qa",
            category: TaskCategory::QuestionAnswering,
            weight: 9.0,
            input_dist: LengthDist::with_mean(180.0, 0.7, 16),
            target_dist: LengthDist::with_mean(12.0, 0.7, 1),
        },
        TaskSpec {
            name: "wmt_translation",
            category: TaskCategory::Translation,
            weight: 10.0,
            input_dist: LengthDist::with_mean(110.0, 0.6, 8),
            target_dist: LengthDist::with_mean(110.0, 0.6, 8),
        },
        TaskSpec {
            name: "dialog",
            category: TaskCategory::Dialog,
            weight: 6.0,
            input_dist: LengthDist::with_mean(420.0, 0.8, 24),
            target_dist: LengthDist::with_mean(45.0, 0.7, 2),
        },
        TaskSpec {
            name: "reading_comprehension",
            category: TaskCategory::ReadingComprehension,
            weight: 8.0,
            input_dist: LengthDist::with_mean(550.0, 0.8, 32),
            target_dist: LengthDist::with_mean(10.0, 0.7, 1),
        },
        TaskSpec {
            name: "cnn_dailymail_summarization",
            category: TaskCategory::Summarization,
            weight: 7.0,
            // Paper: CNN/DailyMail mean input length 977.73 tokens.
            input_dist: LengthDist::with_mean(977.7, 0.55, 64),
            target_dist: LengthDist::with_mean(62.0, 0.5, 4),
        },
        TaskSpec {
            name: "xsum_summarization",
            category: TaskCategory::Summarization,
            weight: 3.0,
            input_dist: LengthDist::with_mean(2100.0, 0.7, 128),
            target_dist: LengthDist::with_mean(28.0, 0.5, 2),
        },
        TaskSpec {
            name: "long_doc_extraction",
            category: TaskCategory::LongDocument,
            weight: 1.5,
            input_dist: LengthDist::with_mean(6500.0, 0.9, 256),
            target_dist: LengthDist::with_mean(40.0, 0.7, 2),
        },
        TaskSpec {
            name: "book_summarization",
            category: TaskCategory::LongDocument,
            weight: 0.5,
            input_dist: LengthDist::with_mean(24000.0, 1.0, 1024),
            target_dist: LengthDist::with_mean(180.0, 0.7, 8),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arithmetic mean of the distribution.
    fn mean(d: &LengthDist) -> f64 {
        (d.mu + d.sigma * d.sigma / 2.0).exp()
    }

    #[test]
    fn registry_weights_skew_short() {
        let reg = flanv2_registry();
        let short: f64 = reg
            .iter()
            .filter(|t| mean(&t.input_dist) < 200.0)
            .map(|t| t.weight)
            .sum();
        let total: f64 = reg.iter().map(|t| t.weight).sum();
        assert!(short / total > 0.6, "most samples must be short tasks");
    }

    #[test]
    fn with_mean_recovers_mean() {
        let d = LengthDist::with_mean(977.7, 0.55, 1);
        assert!((mean(&d) - 977.7).abs() < 1e-6);
    }

    #[test]
    fn sample_from_z_monotone_and_clamped() {
        let d = LengthDist::with_mean(100.0, 0.5, 10);
        assert!(d.sample_from_z(1.0) > d.sample_from_z(0.0));
        assert!(d.sample_from_z(-10.0) >= 10);
    }

    #[test]
    fn registry_contains_heavy_tail() {
        let reg = flanv2_registry();
        assert!(reg.iter().any(|t| mean(&t.input_dist) > 5000.0));
        assert!(reg.iter().any(|t| mean(&t.input_dist) < 60.0));
    }
}
