//! Timeline simulation: turn a schedule plus durations into op start/end
//! times and a makespan.
//!
//! This is the "simulated device computation timeline" of §6 (used to plan
//! communication order) and the evaluation harness behind the Fig. 7
//! noise-robustness study: schedules are generated against planned
//! durations, then evaluated here against (possibly perturbed) actual
//! durations.

use crate::types::{Schedule, ScheduleInput};
use dynapipe_model::Micros;

/// Start/end times of every pass.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTimes {
    /// `fwd[mb][stage] = (start, end)`.
    pub fwd: Vec<Vec<(Micros, Micros)>>,
    /// `bwd[mb][stage] = (start, end)`.
    pub bwd: Vec<Vec<(Micros, Micros)>>,
    /// End-to-end makespan.
    pub makespan: Micros,
}

/// One executed op in end-time order (for communication planning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedOp {
    /// Micro-batch index.
    pub mb: usize,
    /// Stage (device) index.
    pub stage: usize,
    /// Backward pass?
    pub backward: bool,
    /// Start time.
    pub start: Micros,
    /// End time.
    pub end: Micros,
}

/// An evaluated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Per-pass times.
    pub times: OpTimes,
}

impl Timeline {
    /// All ops sorted by ascending end time (ties by stage then
    /// micro-batch), the iteration order of the §6 planning pass.
    pub fn ops_by_end_time(&self) -> Vec<TimedOp> {
        let mut ops = Vec::new();
        for (mb, stages) in self.times.fwd.iter().enumerate() {
            for (stage, &(start, end)) in stages.iter().enumerate() {
                ops.push(TimedOp {
                    mb,
                    stage,
                    backward: false,
                    start,
                    end,
                });
            }
        }
        for (mb, stages) in self.times.bwd.iter().enumerate() {
            for (stage, &(start, end)) in stages.iter().enumerate() {
                ops.push(TimedOp {
                    mb,
                    stage,
                    backward: true,
                    start,
                    end,
                });
            }
        }
        ops.sort_by(|a, b| {
            a.end
                .total_cmp(&b.end)
                .then(a.stage.cmp(&b.stage))
                .then(a.mb.cmp(&b.mb))
                .then(a.backward.cmp(&b.backward))
        });
        ops
    }
}

/// Evaluate `schedule` against the durations in `input`.
///
/// Dependencies: a forward on stage `j` needs the same micro-batch's
/// forward on `j-1` (plus the boundary communication delay); a backward on
/// the last stage needs that stage's forward; a backward on stage `j` needs
/// the backward on `j+1`. Each device executes its order sequentially.
///
/// Returns an error if the schedule cannot make progress (a dependency
/// cycle — impossible for orders produced by the schedulers in this crate,
/// but hand-written orders are checked rather than looping forever).
pub fn evaluate_schedule(schedule: &Schedule, input: &ScheduleInput) -> Result<Timeline, String> {
    let c = schedule.num_stages();
    let m = input.num_micro_batches();
    if c != input.num_stages() {
        return Err(format!(
            "schedule has {c} stages but input describes {}",
            input.num_stages()
        ));
    }
    const UNSET: Micros = -1.0;
    let mut fwd = vec![vec![(UNSET, UNSET); c]; m];
    let mut bwd = vec![vec![(UNSET, UNSET); c]; m];
    let mut pc = vec![0usize; c];
    let mut clock = vec![0.0f64; c];
    let mut remaining: usize = schedule.orders.iter().map(Vec::len).sum();

    while remaining > 0 {
        let mut progressed = false;
        for j in 0..c {
            // Drain every currently-ready op on device j.
            while pc[j] < schedule.orders[j].len() {
                let op = schedule.orders[j][pc[j]];
                if op.mb >= m {
                    return Err(format!("device {j}: micro-batch {} out of range", op.mb));
                }
                let dep: Option<Micros> = if !op.backward {
                    if j == 0 {
                        Some(0.0)
                    } else if fwd[op.mb][j - 1].1 >= 0.0 {
                        Some(fwd[op.mb][j - 1].1 + input.comm_delay(op.mb, j - 1))
                    } else {
                        None
                    }
                } else if j == c - 1 {
                    if fwd[op.mb][j].1 >= 0.0 {
                        Some(fwd[op.mb][j].1)
                    } else {
                        None
                    }
                } else if bwd[op.mb][j + 1].1 >= 0.0 {
                    Some(bwd[op.mb][j + 1].1 + input.comm_delay(op.mb, j))
                } else {
                    None
                };
                let Some(ready) = dep else { break };
                let start = clock[j].max(ready);
                let dur = if op.backward {
                    input.bwd[op.mb][j]
                } else {
                    input.fwd[op.mb][j]
                };
                let end = start + dur;
                if op.backward {
                    bwd[op.mb][j] = (start, end);
                } else {
                    fwd[op.mb][j] = (start, end);
                }
                clock[j] = end;
                pc[j] += 1;
                remaining -= 1;
                progressed = true;
            }
        }
        if !progressed {
            let stuck: Vec<usize> = (0..c)
                .filter(|&j| pc[j] < schedule.orders[j].len())
                .collect();
            return Err(format!("schedule cannot progress; stuck devices {stuck:?}"));
        }
    }
    let makespan = clock.iter().copied().fold(0.0, f64::max);
    Ok(Timeline {
        times: OpTimes { fwd, bwd, makespan },
    })
}

/// A lower bound on [`evaluate_schedule`]'s makespan for every schedule
/// that runs each micro-batch's forward and backward once on every device:
/// 1F1B, the adaptive schedule, and either under any micro-batch order.
///
/// With `f`, `b` and `c` a micro-batch's forward, backward and boundary
/// communication times per stage, it is
/// `max_j [min_i Σ_{k<j}(f_ik + c_ik) + Σ_i (f_ij + b_ij) + min_i Σ_{k<j}(b_ik + c_ik)]`:
/// device `j` runs every one of its ops in sequence, its first op is a
/// forward that waits for that micro-batch's forwards on every earlier
/// stage, and its last is a backward that every earlier stage's backward
/// of the same micro-batch waits for. No term depends on the order of the
/// micro-batches. 0 with no micro-batches.
///
/// Both this and the makespan are rounded sums of the same durations, so
/// the bound holds up to rounding: each side is within `n · 2^-53` of its
/// exact value, relatively, for `n` additions along its longest chain
/// (at most `4 · m · c` for `m` micro-batches on `c` stages).
pub fn makespan_lower_bound(input: &ScheduleInput) -> Micros {
    let m = input.num_micro_batches();
    if m == 0 {
        return 0.0;
    }
    // `head[i]` and `tail[i]`: micro-batch `i`'s forward and backward
    // path through the stages before the current one.
    let mut head = vec![0.0; m];
    let mut tail = vec![0.0; m];
    let mut bound = 0.0f64;
    for j in 0..input.num_stages() {
        if j > 0 {
            for i in 0..m {
                let c = input.comm_delay(i, j - 1);
                head[i] += input.fwd[i][j - 1] + c;
                tail[i] += input.bwd[i][j - 1] + c;
            }
        }
        let least = |v: &[Micros]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let busy: Micros = (0..m).map(|i| input.fwd[i][j] + input.bwd[i][j]).sum();
        bound = bound.max(least(&head) + busy + least(&tail));
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::adaptive_schedule;
    use crate::onefb::one_f_one_b;
    use crate::types::ScheduledOp;
    use dynapipe_cost::iteration_time;

    #[test]
    fn uniform_1f1b_matches_eq1_exactly() {
        // For uniform micro-batches with no comm delay, 1F1B achieves the
        // Eq. 1 prediction (c-1)·t + m·t exactly.
        for (m, c, tf, tb) in [
            (8usize, 4usize, 10.0, 20.0),
            (4, 2, 5.0, 5.0),
            (6, 6, 7.0, 13.0),
        ] {
            let input = ScheduleInput::uniform(m, c, tf, tb, 1);
            let tl = evaluate_schedule(&one_f_one_b(m, c), &input).unwrap();
            let times: Vec<Micros> = (0..m).map(|i| input.mb_time(i)).collect();
            let expect = iteration_time(&times, c);
            assert!(
                (tl.times.makespan - expect).abs() < 1e-6,
                "m={m} c={c}: makespan {} vs Eq.1 {expect}",
                tl.times.makespan
            );
        }
    }

    #[test]
    fn adaptive_no_worse_than_1f1b_on_uniform() {
        let input = ScheduleInput::uniform(8, 4, 10.0, 20.0, 1);
        let a = evaluate_schedule(&adaptive_schedule(&input), &input).unwrap();
        let b = evaluate_schedule(&one_f_one_b(8, 4), &input).unwrap();
        assert!(a.times.makespan <= b.times.makespan + 1e-9);
    }

    #[test]
    fn forward_waits_for_previous_stage() {
        let input = ScheduleInput::uniform(1, 3, 10.0, 20.0, 1);
        let tl = evaluate_schedule(&one_f_one_b(1, 3), &input).unwrap();
        assert_eq!(tl.times.fwd[0][0], (0.0, 10.0));
        assert_eq!(tl.times.fwd[0][1], (10.0, 20.0));
        assert_eq!(tl.times.fwd[0][2], (20.0, 30.0));
        assert_eq!(tl.times.bwd[0][2], (30.0, 50.0));
        assert_eq!(tl.times.bwd[0][1], (50.0, 70.0));
        assert_eq!(tl.times.bwd[0][0], (70.0, 90.0));
        assert_eq!(tl.times.makespan, 90.0);
    }

    #[test]
    fn comm_delay_shifts_downstream_stages() {
        let mut input = ScheduleInput::uniform(1, 2, 10.0, 10.0, 1);
        input.comm = vec![vec![5.0, 0.0]];
        let tl = evaluate_schedule(&one_f_one_b(1, 2), &input).unwrap();
        assert_eq!(tl.times.fwd[0][1].0, 15.0);
        // Backward crossing the same boundary also pays the delay.
        assert_eq!(tl.times.bwd[0][0].0, tl.times.bwd[0][1].1 + 5.0);
    }

    /// Every ordering of `0..n`.
    fn all_orders(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        all_orders(n - 1)
            .into_iter()
            .flat_map(|o| {
                (0..n).map(move |at| {
                    let mut o = o.clone();
                    o.insert(at, n - 1);
                    o
                })
            })
            .collect()
    }

    #[test]
    fn lower_bound_holds_for_every_schedule_and_order() {
        // Generated inputs with communication delays, up to 5
        // micro-batches (every order) on 1 to 4 stages, and the empty
        // replica. Durations are small multiples of 1/4, so every sum is
        // exact and the bound must hold without slack. The reorder search
        // runs the adaptive schedule on cluster orders, a subset of these.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut tight = 0;
        for case in 0..60 {
            let (m, c) = (case % 6, 1 + (case / 6) % 4);
            let mut q = |lo: u64, hi: u64| (lo + next(hi - lo)) as f64 / 4.0;
            let fwd: Vec<Vec<Micros>> =
                (0..m).map(|_| (0..c).map(|_| q(4, 80)).collect()).collect();
            let bwd = (0..m)
                .map(|i| (0..c).map(|j| fwd[i][j] + q(0, 120)).collect())
                .collect();
            let comm = (0..m).map(|_| (0..c).map(|_| q(0, 12)).collect()).collect();
            let act = (0..m).map(|i| vec![1 + (i as u64 % 3); c]).collect();
            let input = ScheduleInput {
                fwd,
                bwd,
                act,
                mem_limit: vec![3 + next(4); c],
                comm,
            };
            let bound = makespan_lower_bound(&input);
            assert_eq!(bound == 0.0, m == 0, "case {case}");
            for order in all_orders(m) {
                let sel = input.select(&order);
                for schedule in [one_f_one_b(m, c), adaptive_schedule(&sel)] {
                    let makespan = evaluate_schedule(&schedule, &sel).unwrap().times.makespan;
                    assert!(
                        bound <= makespan,
                        "case {case} {order:?}: {bound} > {makespan}"
                    );
                    tight += usize::from(bound == makespan);
                }
            }
            let reordered = crate::reorder::reorder_micro_batches(
                &input,
                &crate::reorder::ReorderConfig { num_clusters: 3 },
            );
            assert!(bound <= reordered.1, "case {case}: reorder");
        }
        // One stage runs its ops back to back: the bound is the makespan.
        assert!(tight > 0);
    }

    #[test]
    fn invalid_order_reports_stuck_devices() {
        // Device 1 tries its backward before the forward ever runs — a
        // cyclic dependency with device 0's order.
        let s = Schedule {
            orders: vec![
                vec![ScheduledOp::bwd(0), ScheduledOp::fwd(0)],
                vec![ScheduledOp::fwd(0), ScheduledOp::bwd(0)],
            ],
        };
        let input = ScheduleInput::uniform(1, 2, 1.0, 1.0, 1);
        let err = evaluate_schedule(&s, &input).unwrap_err();
        assert!(err.contains("stuck"), "{err}");
    }

    #[test]
    fn ops_by_end_time_sorted() {
        let input = ScheduleInput::uniform(3, 2, 10.0, 20.0, 1);
        let tl = evaluate_schedule(&one_f_one_b(3, 2), &input).unwrap();
        let ops = tl.ops_by_end_time();
        assert_eq!(ops.len(), 3 * 2 * 2);
        assert!(ops.windows(2).all(|w| w[0].end <= w[1].end));
    }

    #[test]
    fn variable_micro_batches_break_eq1_exactness() {
        // With highly variable micro-batch times, the realized 1F1B
        // makespan exceeds what uniform packing would give — the blocking
        // phenomenon of Fig. 6b.
        let c = 4;
        let m = 8;
        let mut input = ScheduleInput::uniform(m, c, 10.0, 20.0, 1);
        for i in 0..m {
            let scale = if i % 2 == 0 { 0.2 } else { 1.8 };
            for j in 0..c {
                input.fwd[i][j] *= scale;
                input.bwd[i][j] *= scale;
            }
        }
        let tl = evaluate_schedule(&one_f_one_b(m, c), &input).unwrap();
        let times: Vec<Micros> = (0..m).map(|i| input.mb_time(i)).collect();
        let eq1 = iteration_time(&times, c);
        assert!(
            tl.times.makespan >= eq1 - 1e-9,
            "realized {} cannot beat the model {eq1}",
            tl.times.makespan
        );
    }
}
