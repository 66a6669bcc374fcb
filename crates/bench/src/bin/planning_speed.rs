//! Planning-speed regression bench: serial reference vs optimized hot path.
//!
//! Reuses the Fig. 17 workload (65k-token mini-batches of the FLANv2-like
//! dataset, every §7 recompute mode swept) and times the DP partitioning
//! core — the dominant term in per-iteration planning — two ways:
//!
//! * **serial**: the retained reference path
//!   ([`Partitioner::partition_reference`]): per-mode slice-table rebuild,
//!   full `t_max` candidate sweep, no parallelism, no pruning;
//! * **optimized**: the production path: one mode-independent shape pass
//!   and one batched query plan shared across all recompute modes, the
//!   mode-independent cost terms priced once per mini-batch, one batched
//!   solve of each mode's own grids, and the bound-driven `t_max` search,
//!   which runs Eq. 2 only for candidates a solved neighbour's sum cannot
//!   rule out. Each step is timed separately — shape pass, locate,
//!   mode-free pricing, and each mode's `partition_with_context` — so the
//!   artifact shows the serial prefix the planner's mode sweep waits on.
//!
//! Each partition call is single-threaded (planning parallelism lives in
//! the planner's §7 mode sweep, which this bench does not run), so
//! `RAYON_NUM_THREADS` must not change the optimized time: at 2 threads it
//! should be no slower than at 1.
//!
//! Emits `BENCH_planning.json` with `{serial_us, parallel_us, speedup}`
//! plus per-model breakdowns including **distinct-shape counts**,
//! **grid-query counters** (scalar queries vs batched points/cells) and
//! **Eq. 2 solve counts** of both paths, so pricing-layer and search
//! regressions are visible in the artifact, not just the wall clock.
//! Equivalence of the chosen partitions is checked on every measured
//! mini-batch — the speed-up must never come from choosing
//! different partitions — and any divergence makes the bench exit
//! nonzero after reporting every offending case.

use dynapipe_batcher::{
    dp_solve_stats, sort_samples, DpConfig, DpSolveStats, Partitioner, SliceFwdCosts, SliceShapes,
};
use dynapipe_bench::{probe_minibatches, write_json, write_root_artifact, BenchOpts, Point};
use dynapipe_cost::{grid_query_stats, CostModel, GridQueryStats, ProfileOptions};
use dynapipe_data::{Dataset, Sample};
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use std::ops::Range;
use std::time::Instant;

/// Time spent in each step of the optimized path, summed over the
/// mini-batches (µs).
#[derive(Default)]
struct OptimizedSteps {
    shape_pass_us: f64,
    locate_us: f64,
    mode_free_us: f64,
    /// Per mode, in [`RecomputeMode::ALL`] order.
    partition_us: [f64; 3],
}

impl OptimizedSteps {
    fn total_us(&self) -> f64 {
        self.shape_pass_us
            + self.locate_us
            + self.mode_free_us
            + self.partition_us.iter().sum::<f64>()
    }

    fn to_json(&self) -> serde_json::Value {
        let partition = serde_json::Value::Object(
            RecomputeMode::ALL
                .iter()
                .zip(self.partition_us)
                .map(|(mode, us)| (mode.label().to_string(), serde_json::json!(us)))
                .collect(),
        );
        serde_json::json!({
            "shape_pass_us": self.shape_pass_us,
            "locate_us": self.locate_us,
            "mode_free_us": self.mode_free_us,
            "partition_us": partition,
        })
    }
}

/// Run `f`, adding its wall time to `acc` (µs).
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64() * 1e6;
    out
}

struct ModelRun {
    name: &'static str,
    serial_us: f64,
    parallel_us: f64,
    steps: OptimizedSteps,
    distinct_shapes: u64,
    serial_queries: GridQueryStats,
    opt_queries: GridQueryStats,
    serial_solves: DpSolveStats,
    opt_solves: DpSolveStats,
    divergences: usize,
}

/// What each path chose for one (mini-batch, mode) case.
type Outcome = Option<(f64, Vec<Range<usize>>)>;

fn dp_config(cm: &CostModel, mode: RecomputeMode) -> DpConfig {
    let mut cfg = DpConfig::new(cm.min_activation_budget());
    cfg.recompute = mode;
    cfg.max_mb_samples = 128;
    cfg
}

fn run_model(
    name: &'static str,
    model: ModelConfig,
    parallel: ParallelConfig,
    minibatches: &[Vec<Sample>],
) -> ModelRun {
    let hw = HardwareModel::a100_cluster();
    let cm = CostModel::build(hw, model, parallel, &ProfileOptions::default());
    let ordered: Vec<Vec<Sample>> = minibatches
        .iter()
        .map(|mb| {
            let mut s = mb.clone();
            sort_samples(cm.model.arch, &mut s);
            s
        })
        .collect();

    // Serial reference: rebuild the fused slice table per recompute mode,
    // full candidate sweep.
    let stats0 = grid_query_stats();
    let solves0 = dp_solve_stats();
    let t0 = Instant::now();
    let mut serial_outcomes: Vec<Outcome> = Vec::new();
    for mb in &ordered {
        for mode in RecomputeMode::ALL {
            let p = Partitioner::new(&cm, dp_config(&cm, mode));
            serial_outcomes.push(
                p.partition_reference(mb)
                    .map(|r| (r.est_iteration_time, r.ranges)),
            );
        }
    }
    let serial_us = t0.elapsed().as_secs_f64() * 1e6;
    let stats1 = grid_query_stats();
    let solves1 = dp_solve_stats();

    // Optimized: one shared shape pass, batched query plan and
    // mode-independent cost table per mini-batch, per-mode pricing of the
    // mode's own grids, bound-driven t_max search. Each step is timed on
    // its own; `parallel_us` is their sum.
    let mut steps = OptimizedSteps::default();
    let mut fast_outcomes: Vec<Outcome> = Vec::new();
    let mut distinct_shapes = 0u64;
    for mb in &ordered {
        let shapes = timed(&mut steps.shape_pass_us, || {
            SliceShapes::build(
                cm.model.arch,
                mb,
                dp_config(&cm, RecomputeMode::None).max_mb_samples,
            )
        });
        distinct_shapes += shapes.num_distinct_shapes() as u64;
        let batch = timed(&mut steps.locate_us, || {
            cm.shape_pricer(RecomputeMode::None)
                .locate_batch(shapes.distinct_shapes())
        });
        let fwd = timed(&mut steps.mode_free_us, || {
            SliceFwdCosts::from_batch(&cm, batch)
        });
        for (m, mode) in RecomputeMode::ALL.into_iter().enumerate() {
            let p = Partitioner::new(&cm, dp_config(&cm, mode));
            let outcome = timed(&mut steps.partition_us[m], || {
                p.partition_with_context(&shapes, &fwd, mb)
            });
            fast_outcomes.push(outcome.map(|r| (r.est_iteration_time, r.ranges)));
        }
    }
    let parallel_us = steps.total_us();
    let stats2 = grid_query_stats();
    let solves2 = dp_solve_stats();

    let mut divergences = 0usize;
    for (i, (s, f)) in serial_outcomes.iter().zip(&fast_outcomes).enumerate() {
        match (s, f) {
            (Some((so, sr)), Some((fo, fr))) => {
                if (so - fo).abs() > 1e-9 * so.abs().max(1.0) || sr != fr {
                    divergences += 1;
                    eprintln!(
                        "DIVERGENCE {name} case {i}: serial obj {so} ({} ranges) vs \
                         optimized obj {fo} ({} ranges)",
                        sr.len(),
                        fr.len()
                    );
                }
            }
            (s, f) => {
                if s.is_none() != f.is_none() {
                    divergences += 1;
                    eprintln!(
                        "DIVERGENCE {name} case {i}: feasibility (serial {}, optimized {})",
                        s.is_some(),
                        f.is_some()
                    );
                }
            }
        }
    }

    println!(
        "  {name:>4}: serial {:9.1} ms | optimized {:9.1} ms | {:5.2}x on {} mini-batches",
        serial_us / 1e3,
        parallel_us / 1e3,
        serial_us / parallel_us,
        ordered.len(),
    );
    let serial_queries = stats1.since(&stats0);
    let opt_queries = stats2.since(&stats1);
    let serial_solves = solves1.since(&solves0);
    let opt_solves = solves2.since(&solves1);
    println!(
        "        {} distinct shapes | serial {} scalar queries | optimized {} scalar + {} batched points -> {} cells",
        distinct_shapes,
        serial_queries.scalar,
        opt_queries.scalar,
        opt_queries.batch_points,
        opt_queries.batch_cells,
    );
    println!(
        "        Eq. 2 solves: serial {} | optimized {}",
        serial_solves.eq2_solves, opt_solves.eq2_solves,
    );
    println!(
        "        optimized steps, ms: shape pass {:.1} | locate {:.1} | mode-free {:.1} | \
         partition none {:.1}, selective {:.1}, full {:.1}",
        steps.shape_pass_us / 1e3,
        steps.locate_us / 1e3,
        steps.mode_free_us / 1e3,
        steps.partition_us[0] / 1e3,
        steps.partition_us[1] / 1e3,
        steps.partition_us[2] / 1e3,
    );
    ModelRun {
        name,
        serial_us,
        parallel_us,
        steps,
        distinct_shapes,
        serial_queries,
        opt_queries,
        serial_solves,
        opt_solves,
        divergences,
    }
}

fn main() {
    let opts = BenchOpts::default();
    let dataset = Dataset::flanv2(opts.seed, opts.dataset_samples_at_least(6000));
    println!("planning speed — fig17 workload, 65k-token mini-batches, all recompute modes\n");
    let mut runs = Vec::new();
    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(1, 2, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(1, 4, 2)),
    ] {
        let point = Point {
            model,
            num_gpus: 8,
            max_seq_len: 4096,
            gbs_tokens: 65536,
        };
        let minibatches = probe_minibatches(&dataset, &point, opts.capped(4, 1));
        runs.push(run_model(name, model, parallel, &minibatches));
    }

    let serial_us: f64 = runs.iter().map(|r| r.serial_us).sum();
    let parallel_us: f64 = runs.iter().map(|r| r.parallel_us).sum();
    let speedup = serial_us / parallel_us;
    println!(
        "\n  total: {speedup:.2}x (threads: {})",
        rayon::current_num_threads()
    );

    let per_model = serde_json::Value::Object(
        runs.iter()
            .map(|r| {
                let grid_queries = serde_json::json!({
                    "serial_scalar": r.serial_queries.scalar,
                    "optimized_scalar": r.opt_queries.scalar,
                    "optimized_batch_points": r.opt_queries.batch_points,
                    "optimized_batch_cells": r.opt_queries.batch_cells,
                    "optimized_batch_evals": r.opt_queries.batch_evals,
                });
                let eq2_solves = serde_json::json!({
                    "serial": r.serial_solves.eq2_solves,
                    "optimized": r.opt_solves.eq2_solves,
                });
                (
                    r.name.to_string(),
                    serde_json::json!({
                        "serial_us": r.serial_us,
                        "parallel_us": r.parallel_us,
                        "speedup": r.serial_us / r.parallel_us,
                        "optimized_steps_us": r.steps.to_json(),
                        "distinct_shapes": r.distinct_shapes,
                        "grid_queries": grid_queries,
                        "eq2_solves": eq2_solves,
                    }),
                )
            })
            .collect(),
    );
    let out = serde_json::Value::Object(vec![
        ("serial_us".to_string(), serde_json::json!(serial_us)),
        ("parallel_us".to_string(), serde_json::json!(parallel_us)),
        ("speedup".to_string(), serde_json::json!(speedup)),
        (
            "threads".to_string(),
            serde_json::json!(rayon::current_num_threads()),
        ),
        ("per_model".to_string(), per_model),
    ]);
    // The canonical artifact at the repo root (what CI trend-tracks), plus
    // a copy under results/ with the other figure outputs.
    write_root_artifact(&opts, "BENCH_planning.json", &out);
    write_json("planning_speed", &out);

    // Fail loudly: a silent partition divergence would let a broken
    // optimization masquerade as a speed-up.
    let divergences: usize = runs.iter().map(|r| r.divergences).sum();
    if divergences > 0 {
        eprintln!("error: {divergences} case(s) diverged from partition_reference");
        std::process::exit(1);
    }
}
