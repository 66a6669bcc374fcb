//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig17-gpt|short-store|dc32-sharded> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run sets the workload up several times (`setup_s` is the median),
//! computes a serial-driver oracle once outside the timed region, warms
//! the runtime up with a short untimed run, then repeats the workload's
//! epoch prefix through its runtime in a closed loop (one trainer, the
//! runtime's default plan-ahead window and planner pool, the default
//! rayon thread count) for `--seconds`. Every repetition is checked
//! `behavior_eq` against the oracle. Host timings are reported in
//! granted time: wall time scaled by the share of the demanded CPU time
//! that the hypervisor granted over the same interval (`/proc/stat`
//! steal), so other tenants' load on a shared host does not read as a
//! slowdown of the program.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! measured untraced. With `--trace 1` untraced and traced repetitions
//! alternate (a traced one records into a bounded `TraceSink` and must
//! pass `validate` + `reconcile` with no span dropped), then the planner
//! is replayed layer by layer over the same mini-batches (see
//! `replay.rs`), and the last line carries the per-layer metrics.
//! Results, the environment fingerprint and the span records are written
//! under `perfbench/out/`. Any failed gate makes the run exit 1.

mod catalog;
mod measure;
mod replay;
mod workload;

use dynapipe_core::{PlanCodec, RunReport};
use dynapipe_trace::{SpanKind, Trace, TraceSink};
use measure::{
    cpu_ticks_total, median, peak_rss_mb, percentile_with_tail, process_cpu_s, reset_peak_rss,
    result_json,
};
use replay::Replay;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{run_rep, setup, Driver, Rep, RepStats, Setup, Workload, ITERS_PER_REP};

/// Default workload seed.
const DEFAULT_SEED: u64 = 20240422;
/// Set-ups per run; `setup_s` is their median in granted time.
const SETUP_REPEATS: usize = 25;
/// Samples that must lie beyond a reported tail percentile.
const TAIL_SAMPLES: usize = 10;
/// Span capacity of one traced repetition (a dropped span fails the run).
const TRACE_CAP: usize = 1 << 20;
/// Mini-batches the untimed warm-up runs.
const WARMUP_ITERS: usize = 8;
/// Mini-batches the layer replay covers (a prefix of the epoch prefix).
const REPLAY_ITERS: usize = 64;
/// Where results and span records are written, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a closed loop measured over its repetitions.
#[derive(Default)]
struct LoopResult {
    reps: usize,
    iterations: u64,
    failed: u64,
    /// Per repetition: the share of the CPU time it demanded that the
    /// hypervisor granted (`CpuTicks::granted_share_until`).
    granted: Vec<f64>,
    /// Per repetition: iterations per host second, as measured.
    measured_iters_per_s: Vec<f64>,
    /// Per repetition: iterations per granted host second.
    iters_per_s: Vec<f64>,
    /// Per repetition: process CPU ms per iteration.
    cpu_ms_per_iter: Vec<f64>,
    /// Per repetition: non-padding tokens per training-timeline second.
    train_tokens_per_s: Vec<f64>,
    /// Per repetition, per mini-batch of the prefix: the granted part of
    /// `IterationRecord::planning_time_us`.
    plan_us: Vec<Vec<f64>>,
    /// Per repetition: peak resident set size (MB).
    peak_rss_mb: Vec<f64>,
    wire_bytes: u64,
    errors: Vec<String>,
}

/// Repeat the workload through its runtime for `seconds`, checking every
/// repetition against the oracle. A repetition starts only if, at the
/// mean pace so far, it ends within the budget (the first of each kind
/// always runs). With `alternate`, every second repetition records into
/// a bounded `TraceSink` and `check_traced` returns what its trace
/// failed; traced and untraced repetitions interleave so both see the
/// same machine conditions. A failed repetition counts all its
/// iterations as failed, once. Returns the untraced and the traced
/// repetitions.
fn closed_loop(
    s: &Setup,
    oracle: &RunReport,
    seconds: f64,
    alternate: bool,
    mut check_traced: impl FnMut(&Rep, &TraceSink) -> Vec<String>,
) -> Result<(LoopResult, LoopResult), String> {
    let (mut plain, mut traced) = (LoopResult::default(), LoopResult::default());
    let n = ITERS_PER_REP as u64;
    let min_reps = if alternate { 2 } else { 1 };
    let t0 = Instant::now();
    for reps in 0.. {
        let elapsed = t0.elapsed().as_secs_f64();
        if reps >= min_reps && elapsed * (reps + 1) as f64 / reps as f64 > seconds {
            break;
        }
        let is_traced = alternate && reps % 2 == 1;
        let (sink, out) = if is_traced {
            (TraceSink::bounded(TRACE_CAP), &mut traced)
        } else {
            (TraceSink::disabled(), &mut plain)
        };
        reset_peak_rss()?;
        let cpu0 = process_cpu_s()?;
        let ticks0 = cpu_ticks_total()?;
        let rep = run_rep(s, n as usize, &sink);
        let granted = ticks0.granted_share_until(cpu_ticks_total()?);
        out.cpu_ms_per_iter
            .push((process_cpu_s()? - cpu0) * 1e3 / n as f64);
        out.peak_rss_mb.push(peak_rss_mb()?);
        out.reps += 1;
        out.iterations += n;
        out.granted.push(granted);
        out.measured_iters_per_s.push(n as f64 / rep.host_s);
        out.iters_per_s.push(n as f64 / (rep.host_s * granted));
        out.train_tokens_per_s
            .push(rep.report.total_tokens as f64 / (rep.stats.train_wall_us() / 1e6));
        out.plan_us.push(
            rep.report
                .records
                .iter()
                .map(|r| r.planning_time_us * granted)
                .collect(),
        );
        out.wire_bytes += rep.stats.wire_bytes();
        let mut errors: Vec<String> = oracle
            .behavior_eq(&rep.report)
            .err()
            .map(|d| format!("diverged from the serial oracle: {d}"))
            .into_iter()
            .collect();
        if is_traced {
            errors.extend(check_traced(&rep, &sink));
        }
        if !errors.is_empty() {
            out.failed += n;
        }
        out.errors.extend(
            errors
                .into_iter()
                .map(|e| format!("repetition {}: {e}", reps + 1)),
        );
    }
    Ok((plain, traced))
}

/// What a run reports: metric values and its failure ledger.
struct Outcome {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run the benchmark; `Ok(false)` when a correctness gate failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    // Throwaway set-ups first, so only one set of inputs is ever resident.
    let ticks0 = cpu_ticks_total()?;
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        drop(std::hint::black_box(setup(w, args.seed)?));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let s = setup(w, args.seed)?;
    setup_times.push(t.elapsed().as_secs_f64());
    let setup_granted = ticks0.granted_share_until(cpu_ticks_total()?);
    let setup_s = median(&setup_times).expect("at least one set-up") * setup_granted;
    let env = env_fingerprint(args, &s);
    println!(
        "env: {}",
        serde_json::to_string(&env).map_err(|e| e.to_string())?
    );

    let t = Instant::now();
    let oracle = dynapipe_core::run_training(&s.planner, &s.dataset, s.gbs, s.run);
    if let Some(f) = &oracle.failure {
        return Err(format!("{}: the serial oracle failed: {f}", w.name()));
    }
    if oracle.records.len() != ITERS_PER_REP {
        return Err(format!(
            "{}: the serial oracle ran {} iterations",
            w.name(),
            oracle.records.len()
        ));
    }
    let oracle_s = t.elapsed().as_secs_f64();
    // Warm-up: a short untimed run (lazy set-up, allocator growth).
    run_rep(&s, WARMUP_ITERS, &TraceSink::disabled());

    let (outcome, untraced) = if args.trace {
        traced_run(args, &s, &oracle)?
    } else {
        let (mut untraced, _) = closed_loop(&s, &oracle, args.seconds, false, |_, _| Vec::new())?;
        let outcome = Outcome {
            values: end_to_end(&untraced, setup_s)?,
            attempted: untraced.iterations,
            failed: untraced.failed,
            errors: std::mem::take(&mut untraced.errors),
        };
        (outcome, untraced)
    };
    let Outcome {
        values,
        attempted,
        failed,
        errors,
    } = outcome;
    let catalogue = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let metrics = catalog::collect(catalogue, &values)?;

    eprintln!(
        "{} seed {}: {} untraced repetitions x {} iterations; set-up {:.3} s total \
         (granted share {setup_granted:.3}), oracle {oracle_s:.3} s",
        w.name(),
        args.seed,
        untraced.reps,
        ITERS_PER_REP,
        setup_times.iter().sum::<f64>(),
    );
    let per_rep = |label: &str, v: &[f64], digits: usize| {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.digits$}")).collect();
        eprintln!("  per-repetition {label}: {}", v.join(" "));
    };
    per_rep("granted share", &untraced.granted, 3);
    per_rep("it/s as measured", &untraced.measured_iters_per_s, 1);
    per_rep("it/s per granted second", &untraced.iters_per_s, 1);
    per_rep("peak MB", &untraced.peak_rss_mb, 1);
    for m in &metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        // Reported for the reader; the result line carries them as
        // `failed`/`attempted` and in the traced run's per-layer metrics.
        let n = untraced.iterations as f64;
        eprintln!(
            "  {:<28} {:>16.6} KB",
            "plan_wire_kb_per_iter",
            untraced.wire_bytes as f64 / n / 1e3
        );
        eprintln!(
            "  {:<28} {:>16.6}",
            "fail_ratio",
            untraced.failed as f64 / n
        );
    }
    for e in &errors {
        eprintln!("error: {e}");
    }
    let correct = failed == 0 && errors.is_empty();
    let result = serde_json::json!({
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": serde_json::Value::Object(
            values.iter().map(|(k, v)| (k.to_string(), serde_json::Value::F64(*v))).collect()
        ),
    });
    write_out(
        &format!(
            "{}-seed{}-trace{}.json",
            w.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &result,
    )?;
    println!("{}", result_json(correct, attempted, failed, &metrics)?);
    Ok(correct)
}

/// Per mini-batch of the prefix, the median over repetitions of its
/// granted planning time (µs).
fn plan_us_per_mini_batch(l: &LoopResult) -> Vec<f64> {
    let iters = l.plan_us.iter().map(Vec::len).min().unwrap_or(0);
    (0..iters)
        .map(|i| {
            let v: Vec<f64> = l.plan_us.iter().map(|rep| rep[i]).collect();
            median(&v).expect("at least one repetition")
        })
        .collect()
}

/// The end-to-end metrics of an untraced loop. Host times are granted
/// time — wall time with the hypervisor's steal taken out (see
/// `CpuTicks::granted_share_until`) — and every timing is a median over
/// repetitions (the planning percentiles: per mini-batch, then the median
/// and p90 over the prefix's mini-batches). Allocator retention and
/// thread overlap only ever add memory, so `peak_rss_mb` takes the
/// smallest repetition.
fn end_to_end(l: &LoopResult, setup_s: f64) -> Result<BTreeMap<&'static str, f64>, String> {
    let med = |v: &[f64]| median(v).expect("at least one repetition");
    let plan_us = plan_us_per_mini_batch(l);
    Ok(BTreeMap::from([
        ("setup_s", setup_s),
        ("host_iters_per_s", med(&l.iters_per_s)),
        ("cpu_ms_per_iter", med(&l.cpu_ms_per_iter)),
        (
            "plan_ms_p50",
            percentile_with_tail(&plan_us, 0.5, TAIL_SAMPLES)? / 1e3,
        ),
        (
            "plan_ms_p90",
            percentile_with_tail(&plan_us, 0.9, TAIL_SAMPLES)? / 1e3,
        ),
        ("train_tokens_per_s", med(&l.train_tokens_per_s)),
        (
            "peak_rss_mb",
            l.peak_rss_mb.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    ]))
}

/// A `--trace 1` run: alternating untraced and traced repetitions, then
/// the layer replay. Returns the per-layer metrics and the untraced
/// repetitions.
fn traced_run(args: &Args, s: &Setup, oracle: &RunReport) -> Result<(Outcome, LoopResult), String> {
    let w = s.workload;
    let n = ITERS_PER_REP as f64;
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_trace: Option<Trace> = None;
    let (untraced, traced) = closed_loop(s, oracle, args.seconds, true, |rep, sink| {
        let mut trace = sink.finish();
        trace.meta = rep
            .stats
            .trace_meta(&format!("{} seed {}", w.name(), args.seed));
        let mut errors = Vec::new();
        if let Err(e) = trace.validate() {
            errors.push(format!("trace validation failed: {e}"));
        }
        if let Err(e) = trace.reconcile() {
            errors.push(format!("trace reconciliation failed: {e}"));
        }
        if trace.counters.spans_dropped > 0 {
            errors.push(format!(
                "the trace dropped {} spans",
                trace.counters.spans_dropped
            ));
        }
        for (name, v) in runtime_layers(&rep.stats, &trace, n) {
            per_rep.entry(name).or_default().push(v);
        }
        last_trace = Some(trace);
        errors
    })?;
    if let Some(trace) = &last_trace {
        write_out(
            &format!("{}-seed{}-runtime-trace.json", w.name(), args.seed),
            trace,
        )?;
    }

    let t = Instant::now();
    let replay = replay::replay(&s.planner, &s.dataset, s.gbs, &s.run, oracle, REPLAY_ITERS);
    eprintln!(
        "replay of {REPLAY_ITERS} iterations: {:.3} s",
        t.elapsed().as_secs_f64()
    );
    write_out(
        &format!("{}-seed{}-layer-spans.json", w.name(), args.seed),
        &spans_json(&replay),
    )?;

    let mut values = replay_layers(&replay)?;
    for (name, v) in per_rep {
        values.insert(name, median(&v).expect("at least one traced repetition"));
    }
    let rate = |l: &LoopResult| median(&l.iters_per_s).ok_or("no traced repetition ran");
    values.insert(
        "trace.overhead_ratio",
        rate(&untraced)? / rate(&traced)? - 1.0,
    );
    values.insert(
        "plan_wire_kb_per_iter",
        untraced.wire_bytes as f64 / untraced.iterations as f64 / 1e3,
    );
    let attempted = untraced.iterations + traced.iterations + replay.attempted;
    let failed = untraced.failed + traced.failed + replay.failed;
    values.insert("fail_ratio", failed as f64 / attempted as f64);
    let errors = [&untraced.errors[..], &traced.errors, &replay.errors].concat();
    let outcome = Outcome {
        values,
        attempted,
        failed,
        errors,
    };
    Ok((outcome, untraced))
}

/// Per-iteration runtime and cluster counters of one traced repetition.
/// Layers a workload does not run report 0.
fn runtime_layers(stats: &RepStats, trace: &Trace, n: f64) -> Vec<(&'static str, f64)> {
    let ms = |us: f64| us / n / 1e3;
    match stats {
        RepStats::Runtime(s) => {
            let store = s.store.clone().unwrap_or_default();
            vec![
                ("store.peak_occupancy", store.peak_occupancy as f64),
                ("store.discarded", store.discarded as f64),
                ("runtime.exposed_ms", ms(s.exposed_planning_us())),
                ("runtime.overlap_ratio", s.overlap_ratio()),
                ("runtime.worker_plan_ms", ms(s.planning_us.iter().sum())),
                ("runtime.serde_ms", ms(s.serde_overhead_us())),
                ("runtime.exec_host_ms", ms(s.exec_host_us)),
                ("runtime.max_plans_resident", s.max_plans_resident as f64),
                ("cluster.max_link_kb", 0.0),
                ("cluster.push_wire_ms", 0.0),
                ("cluster.fetch_wire_ms", 0.0),
                ("cluster.link_queue_wait_ms", 0.0),
                ("cluster.decode_ms", 0.0),
                ("cluster.exposed_ms", 0.0),
                ("cluster.overlap_ratio", 0.0),
                ("shard.served_skew", 0.0),
            ]
        }
        RepStats::Cluster(c) => {
            let hosts = c.executor_hosts.len().max(1) as f64;
            let served: Vec<f64> = c.shards.iter().map(|s| s.bytes_served as f64).collect();
            let mean_served = served.iter().sum::<f64>() / served.len().max(1) as f64;
            let max_served = served.iter().copied().fold(0.0, f64::max);
            vec![
                ("store.peak_occupancy", c.store.peak_occupancy as f64),
                ("store.discarded", c.store.discarded as f64),
                ("runtime.exposed_ms", ms(c.exposed_us)),
                ("runtime.overlap_ratio", c.overlap_ratio),
                (
                    "runtime.worker_plan_ms",
                    ms(c.planner_hosts.iter().map(|h| h.plan_us + h.lower_us).sum()),
                ),
                ("runtime.serde_ms", ms(c.serialize_us + c.decode_us)),
                // The cluster runtime keeps no engine host-time counter.
                ("runtime.exec_host_ms", 0.0),
                ("runtime.max_plans_resident", c.store.peak_occupancy as f64),
                ("cluster.max_link_kb", c.max_link_bytes as f64 / n / 1e3),
                (
                    "cluster.push_wire_ms",
                    ms(c.planner_hosts.iter().map(|h| h.push_wire_us).sum()),
                ),
                (
                    "cluster.fetch_wire_ms",
                    ms(c.executor_hosts.iter().map(|h| h.fetch_wire_us).sum()),
                ),
                (
                    "cluster.link_queue_wait_ms",
                    ms(trace.of_kind(SpanKind::LinkFetch).map(|s| s.wait_us).sum()),
                ),
                ("cluster.decode_ms", ms(c.decode_us)),
                (
                    "cluster.exposed_ms",
                    ms(c.executor_hosts.iter().map(|h| h.exposed_us).sum::<f64>() / hosts),
                ),
                (
                    "cluster.overlap_ratio",
                    c.executor_hosts
                        .iter()
                        .map(|h| h.overlap_ratio)
                        .sum::<f64>()
                        / hosts,
                ),
                (
                    "shard.served_skew",
                    if mean_served > 0.0 {
                        max_served / mean_served
                    } else {
                        0.0
                    },
                ),
            ]
        }
    }
}

/// Per-layer metrics fed by the replay span of the same name (median
/// over iterations of the per-iteration total).
const SPAN_METRICS: &[&str] = &[
    "data.batch_ms",
    "ordering.ms",
    "dp.shape_pass_ms",
    "dp.fwd_cost_ms",
    "dp.partition_ms.none",
    "dp.partition_ms.selective",
    "dp.partition_ms.full",
    "kk.ms",
    "schedule.input_ms",
    "schedule.reorder_ms",
    "schedule.adaptive_ms",
    "schedule.evaluate_ms",
    "comm.plan_ms",
    "comm.verify_ms",
    "planner.plan_ms",
    "lower.ms",
    "codec.encode_ms.json",
    "codec.encode_ms.binary",
    "codec.encode_ms.flat",
    "codec.decode_ms.json",
    "codec.decode_ms.binary",
    "codec.decode_ms.flat",
    "engine.ms",
];

/// The per-layer metrics the replay measures.
fn replay_layers(r: &Replay) -> Result<BTreeMap<&'static str, f64>, String> {
    let iters = r.attempted as usize;
    let mut per_iter: BTreeMap<&'static str, Vec<f64>> = SPAN_METRICS
        .iter()
        .map(|&name| (name, vec![0.0; iters]))
        .collect();
    // Planner replay spans: their own duration and their children's.
    let mut replay_ms = vec![0.0; iters];
    let mut layers_ms = vec![0.0; iters];
    for s in &r.spans {
        if let Some(v) = per_iter.get_mut(s.name) {
            v[s.iteration] += s.ms();
        }
        if s.name == "planner.replay" {
            replay_ms[s.iteration] += s.ms();
        } else if s
            .parent
            .is_some_and(|p| r.spans[p].name == "planner.replay")
        {
            layers_ms[s.iteration] += s.ms();
        }
    }
    let med = |v: &[f64]| median(v).ok_or("the replay ran no iterations".to_string());
    let plan_total: f64 = per_iter["planner.plan_ms"].iter().sum();
    let mut out = BTreeMap::new();
    for (name, v) in per_iter {
        out.insert(name, med(&v)?);
    }
    let layers_total: f64 = layers_ms.iter().sum();
    let replay_total: f64 = replay_ms.iter().sum();
    out.insert("planner.layers_ms", med(&layers_ms)?);
    out.insert("planner.parallel_speedup", layers_total / plan_total);
    out.insert(
        "planner.unattributed_ratio",
        (replay_total - layers_total) / replay_total,
    );

    let f = &r.facts;
    // Facts exist only for iterations that passed; a run whose every
    // replayed iteration failed reports 0 and its errors.
    let fact = |g: &dyn Fn(&replay::IterFacts) -> f64| {
        median(&f.iter().map(g).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.insert(
        "dp.modes_feasible_ratio",
        fact(&|x| x.feasible_modes as f64 / 3.0),
    );
    out.insert("dp.distinct_shapes", fact(&|x| x.distinct_shapes as f64));
    out.insert("dp.micro_batches", fact(&|x| x.micro_batches as f64));
    out.insert(
        "grid.scalar_queries",
        fact(&|x| x.grid_scalar_queries as f64),
    );
    out.insert("grid.batch_cells", fact(&|x| x.grid_batch_cells as f64));
    out.insert("kk.imbalance", fact(&|x| x.kk_imbalance));
    out.insert("lower.memo_hit_ratio", fact(&|x| x.memo_hit_ratio));
    out.insert("engine.sim_iter_ms", fact(&|x| x.sim_iter_us / 1e3));
    for (i, codec) in PlanCodec::ALL.into_iter().enumerate() {
        let name = match codec {
            PlanCodec::Json => "codec.blob_kb.json",
            PlanCodec::Binary => "codec.blob_kb.binary",
            PlanCodec::Flat => "codec.blob_kb.flat",
        };
        out.insert(name, fact(&|x| x.blob_bytes[i] as f64 / 1e3));
    }
    Ok(out)
}

/// The replay's spans as JSON: one object per span with its parent.
fn spans_json(r: &Replay) -> serde_json::Value {
    serde_json::Value::Array(
        r.spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "id": s.id,
                    "parent": s.parent.map_or(-1, |p| p as i64),
                    "name": s.name,
                    "iteration": s.iteration,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                })
            })
            .collect(),
    )
}

/// The environment a result was measured in.
fn env_fingerprint(args: &Args, s: &Setup) -> serde_json::Value {
    let (workers, window) = match &s.driver {
        Driver::Runtime(c) => (c.workers, c.plan_ahead),
        Driver::Cluster(c) => (c.total_workers(), c.plan_ahead),
    };
    serde_json::json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iters_per_rep": ITERS_PER_REP,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rayon_threads": rayon::current_num_threads(),
        "rayon_num_threads_env": std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
        "runtime_workers": workers,
        "plan_ahead": window,
        "git_rev": git_rev(),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
    })
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git work tree.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => Some(head.to_string()),
    };
    rev.filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Write `value` as JSON to `perfbench/out/<name>`.
fn write_out<T: serde::Serialize + ?Sized>(name: &str, value: &T) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(format!("{OUT_DIR}/{name}"), text).map_err(|e| format!("{OUT_DIR}/{name}: {e}"))
}
