//! Micro-batch ordering by execution-time clustering (§5).
//!
//! The injection order of micro-batches affects throughput under variable
//! execution times, but optimizing it directly is intractable. DynaPipe
//! clusters micro-batches by predicted execution time — micro-batches with
//! similar cost should be scheduled near each other — and searches the
//! permutations of the (3–4) clusters for the order with the best simulated
//! makespan.

use crate::adaptive::adaptive_schedule;
use crate::timeline::{evaluate_schedule, Timeline};
use crate::types::{Schedule, ScheduleInput};
use dynapipe_model::Micros;
use serde::{Deserialize, Serialize};

/// Reordering configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderConfig {
    /// Number of execution-time clusters. The paper finds 3–4 suffice.
    pub num_clusters: usize,
}

impl Default for ReorderConfig {
    fn default() -> Self {
        ReorderConfig { num_clusters: 3 }
    }
}

/// The winning order of the cluster-permutation search, with everything
/// choosing it built (see [`reorder_with_schedule`]).
#[derive(Debug, Clone)]
pub struct Reordered {
    /// The permutation: indices into the original input's micro-batches.
    pub order: Vec<usize>,
    /// The input with its micro-batches in `order`.
    pub input: ScheduleInput,
    /// The adaptive schedule of `input`.
    pub schedule: Schedule,
    /// `schedule` evaluated on `input`.
    pub timeline: Timeline,
}

/// Find a good micro-batch injection order.
///
/// Returns the permutation (indices into `input`'s micro-batches) whose
/// adaptive-schedule makespan is smallest among all permutations of the
/// execution-time clusters, together with that makespan. When no
/// permutation's schedule evaluates, the order is the identity and the
/// makespan infinite.
pub fn reorder_micro_batches(
    input: &ScheduleInput,
    config: &ReorderConfig,
) -> (Vec<usize>, Micros) {
    let m = input.num_micro_batches();
    if m == 0 {
        return (Vec::new(), 0.0);
    }
    match reorder_with_schedule(input, config) {
        Some(best) => (best.order, best.timeline.times.makespan),
        None => ((0..m).collect(), f64::INFINITY),
    }
}

/// [`reorder_micro_batches`]' search, keeping the winner's reordered
/// input, adaptive schedule and timeline, so a caller that goes on to
/// schedule the winning order need not build them again. `None` when
/// there are no micro-batches or no permutation's schedule evaluates to a
/// finite makespan.
pub fn reorder_with_schedule(input: &ScheduleInput, config: &ReorderConfig) -> Option<Reordered> {
    let m = input.num_micro_batches();
    if m == 0 {
        return None;
    }
    let k = config.num_clusters.clamp(1, 4).min(m);
    // Sort micro-batches by predicted time, then split into k quantile
    // clusters of near-equal size.
    let mut by_time: Vec<usize> = (0..m).collect();
    by_time.sort_by(|&a, &b| input.mb_time(a).total_cmp(&input.mb_time(b)));
    let mut clusters: Vec<Vec<usize>> = Vec::with_capacity(k);
    let base = m / k;
    let extra = m % k;
    let mut cursor = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        clusters.push(by_time[cursor..cursor + len].to_vec());
        cursor += len;
    }
    clusters.retain(|c| !c.is_empty());

    let mut best: Option<Reordered> = None;
    let mut best_makespan = f64::INFINITY;
    for perm in permutations(clusters.len()) {
        let order: Vec<usize> = perm
            .iter()
            .flat_map(|&ci| clusters[ci].iter().copied())
            .collect();
        let selected = input.select(&order);
        let schedule = adaptive_schedule(&selected);
        let Ok(timeline) = evaluate_schedule(&schedule, &selected) else {
            continue;
        };
        if timeline.times.makespan < best_makespan {
            best_makespan = timeline.times.makespan;
            best = Some(Reordered {
                order,
                input: selected,
                schedule,
                timeline,
            });
        }
    }
    best
}

/// All permutations of `0..n` (n ≤ 4 in practice: at most 24).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapipe_model::Bytes;

    fn variable_input(m: usize, c: usize) -> ScheduleInput {
        let mut input = ScheduleInput::uniform(m, c, 10.0, 20.0, 1);
        for i in 0..m {
            let scale = 0.3 + 1.7 * ((i * 7919) % 10) as f64 / 10.0;
            for j in 0..c {
                input.fwd[i][j] *= scale;
                input.bwd[i][j] *= scale;
            }
        }
        input
    }

    #[test]
    fn reorder_returns_a_permutation() {
        let input = variable_input(12, 4);
        let (order, makespan) = reorder_micro_batches(&input, &ReorderConfig::default());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert!(makespan.is_finite() && makespan > 0.0);
    }

    #[test]
    fn reorder_no_worse_than_identity() {
        let input = variable_input(16, 4);
        let (_, reordered) = reorder_micro_batches(&input, &ReorderConfig::default());
        let identity = evaluate_schedule(&adaptive_schedule(&input), &input)
            .unwrap()
            .times
            .makespan;
        assert!(
            reordered <= identity + 1e-9,
            "reordered {reordered} vs identity {identity}"
        );
    }

    #[test]
    fn single_cluster_is_time_sorted_order() {
        let input = variable_input(8, 2);
        let cfg = ReorderConfig { num_clusters: 1 };
        let (order, _) = reorder_micro_batches(&input, &cfg);
        assert!(order
            .windows(2)
            .all(|w| input.mb_time(w[0]) <= input.mb_time(w[1]) + 1e-9));
    }

    #[test]
    fn empty_input() {
        let input = ScheduleInput::uniform(0, 2, 1.0, 1.0, 1);
        let (order, makespan) = reorder_micro_batches(&input, &ReorderConfig::default());
        assert!(order.is_empty());
        assert_eq!(makespan, 0.0);
    }

    #[test]
    fn kept_winner_is_what_rebuilding_the_order_gives() {
        // The winner's input, schedule and timeline must equal a rebuild
        // from its order, and its order and makespan must be the plain
        // search's. Uneven activations under a tight limit make the
        // adaptive schedule depend on the order, so a schedule kept from
        // another order would differ.
        let mut input = variable_input(13, 4);
        for (i, act) in input.act.iter_mut().enumerate() {
            act.fill(10 + 30 * ((i * 7919) % 10) as Bytes);
        }
        input.mem_limit = vec![400; 4];
        let cfg = ReorderConfig::default();
        let best = reorder_with_schedule(&input, &cfg).unwrap();
        let (order, makespan) = reorder_micro_batches(&input, &cfg);
        assert_eq!(best.order, order);
        assert_eq!(best.timeline.times.makespan.to_bits(), makespan.to_bits());
        let selected = input.select(&order);
        let schedule = adaptive_schedule(&selected);
        let timeline = evaluate_schedule(&schedule, &selected).unwrap();
        assert_eq!(best.input, selected);
        assert_eq!(best.schedule, schedule);
        assert_eq!(best.timeline, timeline);
        assert_ne!(
            adaptive_schedule(&input),
            schedule,
            "the input must make the schedule order-dependent"
        );
        assert!(reorder_with_schedule(&ScheduleInput::uniform(0, 2, 1.0, 1.0, 1), &cfg).is_none());
    }

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        // Each permutation is distinct.
        let mut p = permutations(4);
        p.sort();
        p.dedup();
        assert_eq!(p.len(), 24);
    }

    #[test]
    fn more_clusters_never_fewer_than_requested() {
        let input = variable_input(2, 2);
        let cfg = ReorderConfig { num_clusters: 4 };
        let (order, _) = reorder_micro_batches(&input, &cfg);
        assert_eq!(order.len(), 2, "clusters capped at m");
    }
}
