//! The differential harness pinning the plan-ahead runtime to the serial
//! driver: same records, same totals, same failure at the same iteration
//! — the overlap is allowed to change wall-clock and architecture, never
//! behavior. `RunReport::behavior_eq` compares every field exactly
//! (floats by bit pattern) except the wall-clock `planning_time_us`.
//!
//! Every (window, workers) shape runs the in-process pipelined runtime
//! and the **store-backed** runtime once per wire codec, whose plans
//! cross the instruction store as serialized blobs: the serialization
//! roundtrip (float formatting, enum encoding, map ordering) is exactly
//! where silent divergence would sneak in. The shared checks live in
//! `common/mod.rs`.

mod common;

use common::{per_codec, Cell, Runtime, Scenario, MONSTER_ID};
use dynapipe_core::{
    DynaPipePlanner, IterationPlan, IterationPlanner, PlanCodec, PlanDistribution, PlanError,
    RunConfig, RuntimeConfig,
};
use dynapipe_cost::CostModel;
use dynapipe_data::{Dataset, Sample};
use dynapipe_sim::JitterConfig;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const JITTER_SHAPES: [(usize, usize); 3] = [(1, 1), (2, 3), (6, 2)];
const DP_SHAPES: [(usize, usize); 1] = [(3, 2)];
const FAILURE_SHAPES: [(usize, usize); 2] = [(1, 1), (4, 2)];

fn default_shape() -> [(usize, usize); 1] {
    let d = RuntimeConfig::default();
    [(d.plan_ahead, d.workers)]
}

/// Each shape's cells: in-process, then store-backed per codec.
fn shape_cells(shapes: &[(usize, usize)]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &(plan_ahead, workers) in shapes {
        let config = |distribution, codec| {
            Runtime::Pipelined(RuntimeConfig {
                plan_ahead,
                workers,
                distribution,
                codec,
            })
        };
        let name = format!("w={plan_ahead},{workers}");
        cells.push(Cell {
            name: format!("{name}/in-process"),
            runtime: config(PlanDistribution::InProcess, PlanCodec::default()),
        });
        cells.extend(per_codec(&format!("{name}/store-backed"), |codec| {
            config(PlanDistribution::StoreBacked, codec)
        }));
    }
    cells
}

#[test]
fn matrix_covers_every_codec_and_keeps_its_cell_count() {
    let mut shapes = [JITTER_SHAPES.as_slice(), &DP_SHAPES, &FAILURE_SHAPES].concat();
    shapes.extend(default_shape());
    common::assert_codec_coverage(&shape_cells(&shapes), 28);
}

#[test]
fn jittered_runs_are_bit_identical_across_window_and_worker_shapes() {
    // Jitter seeds are keyed by (iteration_index, replica), so both
    // pipelined modes must reproduce jittered measurements exactly no
    // matter how planning is scheduled across workers and windows — and
    // no matter that the store-backed plans were rebuilt from the wire.
    let run = RunConfig {
        jitter: Some(JitterConfig {
            sigma: 0.08,
            seed: 0xBEEF,
        }),
        ..common::run(4)
    };
    let sc = common::scenario(1, (101, 500), 16384, run).clean();
    for out in sc.assert_cells(&shape_cells(&JITTER_SHAPES)) {
        let stats = out.pipelined();
        if stats.distribution == PlanDistribution::StoreBacked {
            // The wire hop is real work and is accounted per iteration.
            assert_eq!(stats.serialize_us.len(), 4, "{}", out.name);
            assert_eq!(stats.deserialize_us.len(), 4, "{}", out.name);
            assert!(stats.blob_bytes.iter().all(|&b| b > 0), "{}", out.name);
        }
    }
}

#[test]
fn jitter_free_data_parallel_runs_match() {
    let run = RunConfig {
        jitter: None,
        ..common::run(3)
    };
    let sc = common::scenario(2, (103, 600), 32768, run).clean();
    sc.assert_cells(&shape_cells(&DP_SHAPES));
}

#[test]
fn baseline_planners_run_pipelined_too() {
    let (dataset, gbs, run) = (
        Dataset::flanv2(107, 400),
        common::gbs(16384),
        common::run(3),
    );
    let sc = Scenario::new(common::packing(), dataset, gbs, run);
    sc.assert_cells(&shape_cells(&default_shape()));
}

/// Whether a later mini-batch has started planning, for [`HoldFailure`].
#[derive(Default)]
struct Gate {
    /// (armed, a mini-batch past the monster's has started planning).
    state: Mutex<(bool, bool)>,
    started: Condvar,
}

impl Gate {
    fn arm(&self, armed: bool) {
        *self.state.lock().unwrap() = (armed, false);
    }
}

/// Longest an armed [`HoldFailure`] holds the monster's mini-batch.
const HOLD_LIMIT: Duration = Duration::from_secs(10);

/// DynaPipe with the failing mini-batch held back: while armed, planning
/// the monster's mini-batch waits, at most [`HOLD_LIMIT`], until a later
/// mini-batch has started planning. A worker that started planning
/// pushes its blob, so a speculative blob past the failure always exists
/// by teardown, whichever codec and however the workers are scheduled.
struct HoldFailure {
    inner: DynaPipePlanner,
    gate: Arc<Gate>,
}

impl IterationPlanner for HoldFailure {
    fn plan(&self, minibatch: &[Sample]) -> Result<IterationPlan, PlanError> {
        let first = minibatch.first().map_or(0, |s| s.id);
        let mut state = self.gate.state.lock().unwrap();
        if first > MONSTER_ID {
            state.1 = true;
            self.gate.started.notify_all();
        } else if state.0 && minibatch.iter().any(|s| s.id == MONSTER_ID) {
            let held = self
                .gate
                .started
                .wait_timeout_while(state, HOLD_LIMIT, |s| !s.1);
            state = held.unwrap().0;
        }
        drop(state);
        self.inner.plan(minibatch)
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[test]
fn failure_mid_epoch_stops_all_runtimes_at_the_same_iteration() {
    // Both pipelined runtimes have speculatively planned past the
    // monster's iteration when planning fails: they must discard those
    // plans and stop with exactly the serial driver's failure, records
    // and totals. Store-backed, the failure itself crosses the store as a
    // blob, and the speculative blobs past it are swept out.
    let gate = Arc::new(Gate::default());
    let sc = common::monster_with(HoldFailure {
        inner: common::dynapipe(1),
        gate: Arc::clone(&gate),
    });
    let failed_at = sc.serial.records.len();
    for cell in shape_cells(&FAILURE_SHAPES) {
        // Only a pool of ≥ 2 workers with a window ≥ 2 can plan past the
        // held mini-batch; the gate stays disarmed for the others.
        let Runtime::Pipelined(config) = &cell.runtime else {
            unreachable!("shape cells are pipelined")
        };
        let wide = config.workers >= 2 && config.plan_ahead >= 2;
        gate.arm(wide);
        let out = sc.assert_cell(&cell);
        let stats = out.pipelined();
        // Speculative plans beyond the failure never become records.
        assert_eq!(stats.planning_us.len(), failed_at, "{}", out.name);
        // The speculative blobs past the failure really existed and were
        // discarded rather than leaked, on every codec.
        if let (Some(store), true) = (&stats.store, wide) {
            assert!(store.discarded > 0, "{}: nothing swept", out.name);
        }
    }
}
