//! Memory-aware adaptive (cyclic) scheduling — Alg. 1 of the paper.
//!
//! Micro-batch scheduling is viewed as a re-entrant flow shop and solved
//! with cyclic scheduling: in each cycle every device executes (up to) one
//! backward and one forward from its ready buffers. Unlike 1F1B, injection
//! into the pipeline is regulated: a forward is deferred (pushed back to the
//! head of the ready buffer) whenever executing it would exceed the
//! device's memory limit, so peak activation memory stays within budget
//! while spare memory is spent on safety stock that absorbs execution-time
//! variation.

use crate::types::{Schedule, ScheduleInput, ScheduledOp};
use std::collections::VecDeque;

/// Generate the memory-aware adaptive schedule (Alg. 1) for `input`.
///
/// Devices process their backward buffer before their forward buffer in
/// each cycle; ops unlocked in a cycle become visible at the cycle's end.
/// With unlimited memory this reduces to eager injection (maximal safety
/// stock); with tight limits, forwards are delayed until backwards free
/// activations — Fig. 11's trade-off.
///
/// # Panics
///
/// Panics if `input` has zero stages.
pub fn adaptive_schedule(input: &ScheduleInput) -> Schedule {
    let c = input.num_stages();
    let m = input.num_micro_batches();
    assert!(c > 0, "need at least one stage");
    let mut orders: Vec<Vec<ScheduledOp>> = vec![Vec::with_capacity(2 * m); c];
    // Ready buffers (Alg. 1's S^f_j and S^b_j).
    let mut sf: Vec<VecDeque<usize>> = vec![VecDeque::new(); c];
    let mut sb: Vec<VecDeque<usize>> = vec![VecDeque::new(); c];
    let mut mem: Vec<u64> = vec![0; c];
    // All micro-batches are initially ready on the first stage (line 3).
    sf[0].extend(0..m);

    // Ops unlocked during a cycle (N^f_j, N^b_j), emptied into the ready
    // buffers at its end; allocated once, `drain` keeps their capacity.
    let mut nf: Vec<Vec<usize>> = vec![Vec::new(); c];
    let mut nb: Vec<Vec<usize>> = vec![Vec::new(); c];

    let mut guard = 0usize;
    let guard_max = 4 * (m + 1) * (c + 1) + 16;
    while sf.iter().any(|q| !q.is_empty()) || sb.iter().any(|q| !q.is_empty()) {
        guard += 1;
        assert!(
            guard <= guard_max,
            "adaptive schedule failed to converge (memory limit below a single micro-batch?)"
        );
        for j in 0..c {
            // Backward first (line 7).
            if let Some(i) = sb[j].pop_front() {
                mem[j] = mem[j].saturating_sub(input.act[i][j]);
                orders[j].push(ScheduledOp::bwd(i));
                if j > 0 {
                    nb[j - 1].push(i);
                }
            }
            // Then forward (line 12), memory permitting (line 14).
            if let Some(i) = sf[j].pop_front() {
                if mem[j] + input.act[i][j] <= input.mem_limit[j] {
                    mem[j] += input.act[i][j];
                    orders[j].push(ScheduledOp::fwd(i));
                    if j + 1 < c {
                        nf[j + 1].push(i);
                    } else {
                        // Last stage: the forward's successor is its own
                        // backward.
                        nb[j].push(i);
                    }
                } else {
                    sf[j].push_front(i);
                }
            }
        }
        for j in 0..c {
            sf[j].extend(nf[j].drain(..));
            sb[j].extend(nb[j].drain(..));
        }
    }
    Schedule { orders }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapipe_model::Bytes;

    #[test]
    fn unlimited_memory_schedule_is_complete() {
        for (m, c) in [(1usize, 1usize), (8, 4), (4, 8), (16, 2)] {
            let input = ScheduleInput::uniform(m, c, 10.0, 20.0, 1);
            let s = adaptive_schedule(&input);
            s.validate(m).unwrap_or_else(|e| panic!("m={m} c={c}: {e}"));
        }
    }

    #[test]
    fn eager_injection_raises_first_stage_memory_above_1f1b() {
        // With unlimited memory the adaptive schedule front-loads forwards:
        // the first stage accumulates more concurrent activations than
        // 1F1B's c (Fig. 11b vs 11a).
        let m = 8;
        let c = 4;
        let input = ScheduleInput::uniform(m, c, 10.0, 20.0, 1);
        let s = adaptive_schedule(&input);
        let act = vec![vec![1u64; c]; m];
        let adaptive_peak = s.peak_memory(&act)[0];
        let onefb_peak = crate::onefb::one_f_one_b(m, c).peak_memory(&act)[0];
        assert!(
            adaptive_peak > onefb_peak,
            "adaptive {adaptive_peak} should exceed 1F1B {onefb_peak}"
        );
    }

    #[test]
    fn memory_limit_caps_peak() {
        // Fig. 11c: limit peak to 3 micro-batch activations.
        let m = 8;
        let c = 4;
        let mut input = ScheduleInput::uniform(m, c, 10.0, 20.0, 100);
        input.mem_limit = vec![300; c];
        let s = adaptive_schedule(&input);
        s.validate(m).unwrap();
        let peaks = s.peak_memory(&input.act);
        for (j, p) in peaks.iter().enumerate() {
            assert!(*p <= 300, "stage {j} peak {p} exceeds limit");
        }
    }

    #[test]
    fn limit_of_one_micro_batch_still_schedules() {
        // Training must proceed as long as a single activation fits (§5).
        let m = 5;
        let c = 3;
        let mut input = ScheduleInput::uniform(m, c, 10.0, 10.0, 100);
        input.mem_limit = vec![100; c];
        let s = adaptive_schedule(&input);
        s.validate(m).unwrap();
        assert!(s.peak_memory(&input.act).iter().all(|&p| p <= 100));
    }

    #[test]
    #[should_panic(expected = "failed to converge")]
    fn limit_below_one_micro_batch_panics() {
        let m = 2;
        let c = 2;
        let mut input = ScheduleInput::uniform(m, c, 10.0, 10.0, 100);
        input.mem_limit = vec![50; c];
        let _ = adaptive_schedule(&input);
    }

    #[test]
    fn heterogeneous_activations_respect_limits() {
        let c = 2;
        let mut input = ScheduleInput::uniform(6, c, 10.0, 10.0, 0);
        input.act = vec![
            vec![500; c],
            vec![100; c],
            vec![100; c],
            vec![500; c],
            vec![100; c],
            vec![100; c],
        ];
        input.mem_limit = vec![700; c];
        let s = adaptive_schedule(&input);
        s.validate(6).unwrap();
        let peaks = s.peak_memory(&input.act);
        assert!(peaks.iter().all(|&p| p <= 700), "peaks {peaks:?}");
    }

    #[test]
    fn zero_micro_batches() {
        let input = ScheduleInput::uniform(0, 3, 1.0, 1.0, 1);
        let s = adaptive_schedule(&input);
        assert!(s.orders.iter().all(Vec::is_empty));
    }

    #[test]
    fn respects_input_order_of_injection() {
        let input = ScheduleInput::uniform(4, 2, 1.0, 1.0, 1 as Bytes);
        let s = adaptive_schedule(&input);
        let fwds: Vec<usize> = s.orders[0]
            .iter()
            .filter(|o| !o.backward)
            .map(|o| o.mb)
            .collect();
        assert_eq!(fwds, vec![0, 1, 2, 3], "injection follows the given order");
    }
}
