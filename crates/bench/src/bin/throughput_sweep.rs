//! Figs. 4, 13 (+ Table 1), 14 and 15: DynaPipe against packing across
//! maximum sequence lengths and global batch sizes.
//!
//! Every point is one [`compare`] of three systems, exactly as the paper
//! evaluates them:
//!
//! * **DynaPipe** — grid-searched parallelism, dynamic micro-batching,
//!   memory-aware adaptive schedule;
//! * **MLM+DS** — packing baseline with its own grid-searched parallelism
//!   and micro-batch size;
//! * **MLM+DS (C)** — the packing baseline pinned to DynaPipe's chosen
//!   parallelism.
//!
//! Fig. 13 sweeps the maximum sequence length at GBS 65536 tokens and
//! Fig. 14 the global batch size at max length 2048, for each Table 1
//! model on every cluster size (4, 8, 16 and 32 GPUs): the multi-node
//! sizes are where DynaPipe's winners pipeline. Figs. 4 and 15 are the
//! 8-GPU rows (GPT 6.7B, T5 11B) of the same two sweeps, with packing read
//! as MLM+DS (C), falling back to MLM+DS. Each distinct (model, GPUs, max
//! length, GBS) point is evaluated once, so the max length 2048 / GBS
//! 65536 point both sweeps share is too.
//!
//! Writes `results/fig04_packing_vs_dynamic.json`,
//! `results/fig13_seqlen_scaling.json`, `results/fig14_gbs_scaling.json`
//! and `results/fig15_padding_efficiency.json`.

use dynapipe_batcher::{MicroBatch, PaddingStats};
use dynapipe_bench::{
    compare, fmt_tps, write_json, Comparison, Point, PointResult, DATASET_SAMPLES, SEED,
};
use dynapipe_data::{Dataset, Sample};
use dynapipe_model::{HardwareModel, ModelArch, ModelConfig};
use serde_json::{json, Value};

const ARCHS: [ModelArch; 2] = [ModelArch::Gpt, ModelArch::T5];

/// The cluster sizes of Table 1 and Figs. 13 and 14.
const CLUSTER_SIZES: [usize; 4] = [4, 8, 16, 32];

/// Figs. 4 and 15 run on one 8-GPU node: GPT 6.7B and T5 11B.
const NODE_GPUS: usize = 8;

/// The Table 1 model for `arch` on `gpus` GPUs.
fn table1(arch: ModelArch, gpus: usize) -> ModelConfig {
    match arch {
        ModelArch::Gpt => ModelConfig::gpt_for_gpus(gpus),
        ModelArch::T5 => ModelConfig::t5_for_gpus(gpus),
    }
    .unwrap()
}

/// The swept axis: Fig. 13's maximum sequence length or Fig. 14's global
/// batch size.
#[derive(Clone, Copy)]
enum Axis {
    MaxLen,
    Gbs,
}

impl Axis {
    /// The swept values for `arch` on `gpus` GPUs.
    fn values(self, arch: ModelArch, gpus: usize) -> Vec<usize> {
        match self {
            Axis::MaxLen if arch == ModelArch::T5 && gpus < 32 => vec![512, 1024, 2048, 4096],
            Axis::MaxLen => vec![512, 1024, 2048, 4096, 8192],
            Axis::Gbs => vec![16384, 32768, 65536, 131072],
        }
    }

    /// `(max_seq_len, gbs_tokens)` at swept value `x`.
    fn at(self, x: usize) -> (usize, usize) {
        match self {
            Axis::MaxLen => (x, 65536),
            Axis::Gbs => (2048, x),
        }
    }
}

/// The points evaluated so far, each once.
struct Sweep<'a> {
    hw: HardwareModel,
    dataset: &'a Dataset,
    evaluated: Vec<(Point, Comparison)>,
}

impl Sweep<'_> {
    /// The comparison at `arch`'s Table 1 model on `gpus` GPUs, value `x`
    /// of `axis`, evaluated on first use.
    fn at(&mut self, arch: ModelArch, gpus: usize, axis: Axis, x: usize) -> &Comparison {
        let (max_seq_len, gbs_tokens) = axis.at(x);
        let point = Point {
            model: table1(arch, gpus),
            num_gpus: gpus,
            max_seq_len,
            gbs_tokens,
        };
        let i = match self.evaluated.iter().position(|(p, _)| *p == point) {
            Some(i) => i,
            None => {
                let c = compare(&self.hw, self.dataset, &point);
                self.evaluated.push((point, c));
                self.evaluated.len() - 1
            }
        };
        &self.evaluated[i].1
    }
}

/// Figs. 13 and 14: every Table 1 model and cluster size along `axis`.
fn scaling(sweep: &mut Sweep, axis: Axis) -> Vec<Value> {
    let (fig, fixed, column, key) = match axis {
        Axis::MaxLen => ("13", "GBS 65536 tokens", "max len", "max_seq_len"),
        Axis::Gbs => ("14", "max seq len 2048", "GBS", "gbs"),
    };
    let mut out = Vec::new();
    for arch in ARCHS {
        for gpus in CLUSTER_SIZES {
            let name = arch.name();
            println!(
                "=== Fig. {fig} — {name} ({:.2}B) on {gpus} GPUs, {fixed} ===",
                table1(arch, gpus).total_params_b()
            );
            println!(
                "{column:>8} | {:>10} | {:>10} | {:>10} | {:>14}",
                "MLM+DS(C)", "MLM+DS", "DynaPipe", "dyn parallel"
            );
            for x in axis.values(arch, gpus) {
                let c = sweep.at(arch, gpus, axis, x);
                let tps = |r: &Option<PointResult>| r.as_ref().map(|r| r.throughput);
                println!(
                    "{x:>8} | {} | {} | {} | {:>14}",
                    fmt_tps(tps(&c.mlm_ds_c)),
                    fmt_tps(tps(&c.mlm_ds)),
                    fmt_tps(tps(&c.dynapipe)),
                    c.dynapipe.as_ref().map_or("-", |r| r.parallel.as_str())
                );
                out.push(Value::Object(vec![
                    ("model".into(), json!(name)),
                    ("gpus".into(), json!(gpus)),
                    (key.into(), json!(x)),
                    ("dynapipe".into(), json!(c.dynapipe)),
                    ("mlm_ds".into(), json!(c.mlm_ds)),
                    ("mlm_ds_c".into(), json!(c.mlm_ds_c)),
                ]));
            }
            println!();
        }
    }
    out
}

/// Mini-batch-sized chunks padded to the longest sample in each chunk.
fn naive_padding_efficiency(dataset: &Dataset, msl: usize, arch: ModelArch) -> f64 {
    let samples: Vec<Sample> = dataset.samples.iter().map(|s| s.truncated(msl)).collect();
    let mbs: Vec<MicroBatch> = samples
        .chunks(256)
        .map(|c| MicroBatch::new(c.to_vec()))
        .collect();
    PaddingStats::from_micro_batches(&mbs, arch).efficiency()
}

/// Fig. 4: normalized throughput and padding efficiency vs the maximum
/// sequence length on 8 GPUs, plus the naive-padding strawman.
fn fig04(sweep: &mut Sweep) -> Vec<Value> {
    let mut out = Vec::new();
    for arch in ARCHS {
        let name = arch.name();
        println!("=== Fig. 4 ({name}) — normalized throughput & padding efficiency ===");
        println!(
            "{:>8} | {:>9} {:>9} | {:>7} {:>7} {:>7}",
            "max len", "pack t/s", "dyn t/s", "naive", "pack", "dyn"
        );
        let msls = Axis::MaxLen.values(arch, NODE_GPUS);
        // Normalize throughputs by the best dynamic point, as the paper does.
        let mut norm = 1.0f64;
        for &msl in &msls {
            if let Some(r) = &sweep.at(arch, NODE_GPUS, Axis::MaxLen, msl).dynapipe {
                norm = norm.max(r.throughput);
            }
        }
        for msl in msls {
            let naive_eff = naive_padding_efficiency(sweep.dataset, msl, arch);
            let c = sweep.at(arch, NODE_GPUS, Axis::MaxLen, msl);
            let tps_eff = |r: Option<&PointResult>| {
                r.map_or((None, 0.0), |r| (Some(r.throughput), r.padding_efficiency))
            };
            let (pack_tps, pack_eff) = tps_eff(c.packing());
            let (dyn_tps, dyn_eff) = tps_eff(c.dynapipe.as_ref());
            let normalized =
                |t: Option<f64>| t.map_or("OOM".into(), |t| format!("{:.2}", t / norm));
            println!(
                "{msl:>8} | {:>9} {:>9} | {naive_eff:>7.3} {pack_eff:>7.3} {dyn_eff:>7.3}",
                normalized(pack_tps),
                normalized(dyn_tps),
            );
            out.push(json!({
                "model": name, "max_seq_len": msl,
                "packing_tps": pack_tps, "dynamic_tps": dyn_tps,
                "naive_eff": naive_eff, "packing_eff": pack_eff, "dynamic_eff": dyn_eff,
            }));
        }
        println!();
    }
    out
}

/// (overall, encoder, decoder) padding efficiency.
type Eff = (f64, f64, f64);

fn eff(r: Option<&PointResult>) -> Option<Eff> {
    r.map(|r| {
        (
            r.padding_efficiency,
            r.encoder_efficiency,
            r.decoder_efficiency,
        )
    })
}

/// Fig. 15: padding efficiency of GPT 6.7B (overall) and T5 11B
/// (encoder / decoder) on 8 GPUs, across both sweeps.
fn fig15(sweep: &mut Sweep) -> Vec<Value> {
    let mut out = Vec::new();
    for arch in ARCHS {
        let name = arch.name();
        if arch == ModelArch::Gpt {
            println!("=== Fig. 15a — GPT (6.7B) on 8 GPUs: overall padding efficiency ===");
            println!("{:>10} | {:>8} | {:>8}", "sweep", "MLM+DS", "DynaPipe");
        } else {
            println!("\n=== Fig. 15b — T5 (11B) on 8 GPUs: encoder / decoder efficiency ===");
            println!(
                "{:>10} | {:>15} | {:>15}",
                "sweep", "MLM+DS enc/dec", "DynaPipe enc/dec"
            );
        }
        for axis in [Axis::MaxLen, Axis::Gbs] {
            let label = match axis {
                Axis::MaxLen => "msl",
                Axis::Gbs => "gbs",
            };
            for x in axis.values(arch, NODE_GPUS) {
                let c = sweep.at(arch, NODE_GPUS, axis, x);
                let (p, d) = (eff(c.packing()), eff(c.dynapipe.as_ref()));
                if arch == ModelArch::Gpt {
                    let fmt = |e: Option<Eff>| e.map_or("OOM".into(), |e| format!("{:.3}", e.0));
                    println!("{label} {x:>6} | {:>8} | {:>8}", fmt(p), fmt(d));
                } else {
                    let fmt = |e: Option<Eff>| {
                        e.map_or("OOM".into(), |e| format!("{:.3}/{:.3}", e.1, e.2))
                    };
                    println!("{label} {x:>6} | {:>15} | {:>15}", fmt(p), fmt(d));
                }
                out.push(json!({"model": name, "sweep": label, "value": x,
                    "mlm_ds": p, "dynapipe": d}));
            }
        }
    }
    out
}

fn main() {
    let dataset = Dataset::flanv2(SEED, DATASET_SAMPLES);
    let mut sweep = Sweep {
        hw: HardwareModel::a100_cluster(),
        dataset: &dataset,
        evaluated: Vec::new(),
    };

    println!("Table 1 — model configurations");
    for gpus in CLUSTER_SIZES {
        let g = table1(ModelArch::Gpt, gpus);
        let t = table1(ModelArch::T5, gpus);
        println!(
            "  {gpus:>2} GPUs: GPT {:5.2}B ({} layers, d={}) | T5 {:5.2}B ({}+{} layers)",
            g.total_params_b(),
            g.num_layers,
            g.hidden_dim,
            t.total_params_b(),
            t.num_layers,
            t.num_layers
        );
    }
    println!();

    let fig13 = scaling(&mut sweep, Axis::MaxLen);
    println!(
        "Shape check (paper Fig. 13): MLM+DS throughput decays quickly with the\n\
         maximum sequence length; DynaPipe decays slowly (driven by the average\n\
         length) and keeps running at lengths where baselines go OOM.\n"
    );
    let fig14 = scaling(&mut sweep, Axis::Gbs);
    println!(
        "Shape check (paper Fig. 14): throughput grows with global batch size for\n\
         both systems (smaller pipeline bubble, less frequent gradient sync), and\n\
         DynaPipe grows faster thanks to richer micro-batch-splitting choices.\n"
    );
    let fig04 = fig04(&mut sweep);
    println!(
        "Shape check (paper Fig. 4): packing's normalized throughput falls steeply\n\
         with max length; dynamic micro-batching only drifts down slowly. Naive\n\
         padding efficiency collapses while packing and dynamic stay high.\n"
    );
    let fig15 = fig15(&mut sweep);
    println!(
        "\nShape check (paper Fig. 15): both systems pad little overall for GPT;\n\
         T5 packing is lopsided (encoder ≈0.9, decoder ≈0.35) while DynaPipe\n\
         balances the two sides.\n"
    );
    println!(
        "{} distinct points evaluated (DynaPipe, MLM+DS and MLM+DS (C) each)",
        sweep.evaluated.len()
    );
    write_json("fig04_packing_vs_dynamic", &fig04);
    write_json("fig13_seqlen_scaling", &fig13);
    write_json("fig14_gbs_scaling", &fig14);
    write_json("fig15_padding_efficiency", &fig15);
}
