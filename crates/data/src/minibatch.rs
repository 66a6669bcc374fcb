//! Global-batch (mini-batch) assembly by token budget.
//!
//! The paper fixes the *global batch size in tokens* (e.g. 65536) and fills
//! each training iteration's mini-batch with randomly-sampled examples until
//! the budget is reached. DynaPipe explicitly preserves the user's sampling
//! order ("fully respects users' mini-batch construction method", §9) and
//! only reorders *within* the mini-batch — so the iterator here is the
//! boundary between the data pipeline and the planner.

use crate::dataset::Dataset;
use crate::sample::Sample;
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::Mutex;

/// Configuration for global-batch assembly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GlobalBatchConfig {
    /// Token budget per mini-batch (padding excluded), e.g. 65536.
    pub tokens_per_batch: usize,
    /// Maximum sequence length; longer samples are truncated.
    pub max_seq_len: usize,
}

/// Iterator yielding successive mini-batches from a dataset epoch.
///
/// Samples are consumed in dataset order (which is already a random mixture
/// order — see [`Dataset::flanv2`]); each mini-batch takes samples until
/// adding the next one would exceed the token budget. Every mini-batch
/// contains at least one sample, so a single over-budget sample still makes
/// progress.
pub struct GlobalBatchIter<'a> {
    dataset: &'a Dataset,
    config: GlobalBatchConfig,
    cursor: usize,
}

impl<'a> GlobalBatchIter<'a> {
    /// Create an iterator over one epoch of `dataset`.
    pub fn new(dataset: &'a Dataset, config: GlobalBatchConfig) -> Self {
        GlobalBatchIter {
            dataset,
            config,
            cursor: 0,
        }
    }
}

impl<'a> Iterator for GlobalBatchIter<'a> {
    type Item = Vec<Sample>;

    fn next(&mut self) -> Option<Vec<Sample>> {
        assemble_batch(self.dataset, &self.config, &mut self.cursor)
    }
}

/// The single batch-assembly core shared by [`GlobalBatchIter`] and
/// [`BatchStream`]: take samples from `cursor` until adding the next one
/// would exceed the token budget (always at least one), advancing the
/// cursor. Returns `None` once the epoch is exhausted.
fn assemble_batch(
    dataset: &Dataset,
    config: &GlobalBatchConfig,
    cursor: &mut usize,
) -> Option<Vec<Sample>> {
    if *cursor >= dataset.len() {
        return None;
    }
    let mut batch = Vec::new();
    let mut tokens = 0usize;
    while *cursor < dataset.len() {
        let s = dataset.samples[*cursor].truncated(config.max_seq_len);
        let t = s.total_tokens();
        if !batch.is_empty() && tokens + t > config.tokens_per_batch {
            break;
        }
        batch.push(s);
        tokens += t;
        *cursor += 1;
        if tokens >= config.tokens_per_batch {
            break;
        }
    }
    Some(batch)
}

/// Cursor state of a [`BatchStream`].
#[derive(Debug, Default)]
struct StreamState {
    cursor: usize,
    batches_issued: usize,
}

/// A thread-safe *streaming* mini-batch producer — the pull side of the
/// plan-ahead runtime's planner pool.
///
/// [`GlobalBatchIter`] is a single-threaded `Iterator`; a planner pool
/// needs multiple workers pulling successive mini-batches from one shared
/// epoch without materializing it up front. `BatchStream` provides that:
/// each [`BatchStream::next_batch`] call atomically assembles the next
/// mini-batch (through the same `assemble_batch` core the iterator uses,
/// so the produced sequence is identical) and tags it with its iteration
/// index. Only one mini-batch is resident per call — the epoch is never
/// collected into memory.
///
/// Generic over the dataset handle so callers can stream from a borrow
/// (`&Dataset`, scoped planner pools) or a shared owner (`Arc<Dataset>`,
/// detached pipelines).
pub struct BatchStream<D: Deref<Target = Dataset>> {
    dataset: D,
    config: GlobalBatchConfig,
    state: Mutex<StreamState>,
}

impl<D: Deref<Target = Dataset>> BatchStream<D> {
    /// Stream one epoch of `dataset`.
    pub fn new(dataset: D, config: GlobalBatchConfig) -> Self {
        BatchStream {
            dataset,
            config,
            state: Mutex::new(StreamState::default()),
        }
    }

    /// Assemble and return the next mini-batch with its iteration index,
    /// or `None` once the epoch is exhausted. Safe to call from multiple
    /// threads; indices are dense and each mini-batch is handed out once.
    pub fn next_batch(&self) -> Option<(usize, Vec<Sample>)> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let batch = assemble_batch(&self.dataset, &self.config, &mut st.cursor)?;
        let index = st.batches_issued;
        st.batches_issued += 1;
        Some((index, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::flanv2(11, 5_000)
    }

    #[test]
    fn batches_cover_epoch_exactly_once() {
        let d = dataset();
        let cfg = GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        };
        let mut seen = vec![false; d.len()];
        for batch in GlobalBatchIter::new(&d, cfg) {
            for s in batch {
                assert!(!seen[s.id as usize], "sample {} repeated", s.id);
                seen[s.id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "every sample consumed");
    }

    #[test]
    fn batches_respect_token_budget() {
        let d = dataset();
        let cfg = GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        };
        for batch in GlobalBatchIter::new(&d, cfg) {
            let tokens: usize = batch.iter().map(Sample::total_tokens).sum();
            // Allow the final sample to overshoot by at most one max-length
            // sample; single-sample batches may exceed arbitrarily.
            if batch.len() > 1 {
                assert!(tokens <= cfg.tokens_per_batch + 2 * cfg.max_seq_len);
            }
        }
    }

    #[test]
    fn batches_preserve_dataset_order() {
        let d = dataset();
        let cfg = GlobalBatchConfig {
            tokens_per_batch: 65536,
            max_seq_len: 8192,
        };
        let mut last_id = -1i64;
        for batch in GlobalBatchIter::new(&d, cfg) {
            for s in batch {
                assert!(s.id as i64 > last_id, "order must be preserved");
                last_id = s.id as i64;
            }
        }
    }

    #[test]
    fn all_samples_truncated_to_max_len() {
        let d = dataset();
        let cfg = GlobalBatchConfig {
            tokens_per_batch: 65536,
            max_seq_len: 512,
        };
        for batch in GlobalBatchIter::new(&d, cfg) {
            for s in batch {
                assert!(s.input_len <= 512 && s.target_len <= 512);
            }
        }
    }

    #[test]
    fn iterator_consumes_the_whole_epoch() {
        let d = dataset();
        let cfg = GlobalBatchConfig {
            tokens_per_batch: 65536,
            max_seq_len: 2048,
        };
        let mut it = GlobalBatchIter::new(&d, cfg);
        assert_eq!(it.cursor, 0);
        while it.next().is_some() {}
        assert_eq!(it.cursor, d.len());
    }

    #[test]
    fn stream_yields_exactly_the_iterator_sequence() {
        // The plan-ahead runtime replaces the iterator with the stream;
        // the mini-batch sequence must be identical or plans would diverge
        // from the serial driver's.
        let d = dataset();
        let cfg = GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        };
        let via_iter: Vec<Vec<Sample>> = GlobalBatchIter::new(&d, cfg).collect();
        let stream = BatchStream::new(&d, cfg);
        let mut via_stream = Vec::new();
        while let Some((idx, batch)) = stream.next_batch() {
            assert_eq!(idx, via_stream.len(), "indices must be dense");
            via_stream.push(batch);
        }
        assert_eq!(via_iter, via_stream);
        assert!(stream.next_batch().is_none(), "exhausted stream stays dry");
        assert_eq!(stream.state.lock().unwrap().cursor, d.len());
    }

    #[test]
    fn stream_hands_each_batch_to_exactly_one_puller() {
        // Concurrent pullers (the planner pool) must partition the epoch:
        // every index seen once, batches match the serial sequence.
        let d = dataset();
        let cfg = GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        };
        let reference: Vec<Vec<Sample>> = GlobalBatchIter::new(&d, cfg).collect();
        let stream = BatchStream::new(&d, cfg);
        let mut pulled: Vec<(usize, Vec<Sample>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(x) = stream.next_batch() {
                            got.push(x);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        pulled.sort_by_key(|(i, _)| *i);
        assert_eq!(pulled.len(), reference.len());
        for (i, (idx, batch)) in pulled.iter().enumerate() {
            assert_eq!(*idx, i, "each index handed out exactly once");
            assert_eq!(batch, &reference[i]);
        }
    }

    #[test]
    fn stream_works_from_an_arc_handle() {
        let d = std::sync::Arc::new(dataset());
        let cfg = GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        };
        let stream = BatchStream::new(d.clone(), cfg);
        let (idx, batch) = stream.next_batch().unwrap();
        assert_eq!(idx, 0);
        assert!(!batch.is_empty());
        assert_eq!(stream.state.lock().unwrap().batches_issued, 1);
    }

    #[test]
    fn larger_budget_means_fewer_batches() {
        let d = dataset();
        let small = GlobalBatchIter::new(
            &d,
            GlobalBatchConfig {
                tokens_per_batch: 16384,
                max_seq_len: 2048,
            },
        )
        .count();
        let large = GlobalBatchIter::new(
            &d,
            GlobalBatchConfig {
                tokens_per_batch: 131072,
                max_seq_len: 2048,
            },
        )
        .count();
        assert!(large < small);
    }
}
