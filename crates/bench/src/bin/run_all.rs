//! Run every figure-regeneration binary in sequence — the reproduction's
//! analogue of the paper artifact's `run_all.sh`.
//!
//! Results land in `results/*.json`; console output shows each figure's
//! table and its expected-shape note.
//!
//! The bins reproduce paper figures on simulated time and write only
//! under `results/` (gitignored); host performance is measured by the
//! repo benchmark (`perfbench`), not here.
//!
//! There is one run mode, at full size (Figs. 13 and 14 on 4 to 32 GPUs,
//! where DynaPipe's winners pipeline): CI catches bin bit-rot — a
//! binary that panics, diverges from its reference, or stops emitting
//! its artifact (every bin exits nonzero when it cannot write one) — by
//! running every bin exactly as a regeneration does. `fig09_cluster` is
//! the one bin that gates its results: the divergence checks over its
//! datacenter sweep (every codec and store placement, churned cells
//! included), the blob-byte and fan-out gates, and the check of its one
//! traced cell fail the sweep. None of its gates reads a host clock.
//! After the figures, the sweep round-trips `fig09_cluster`'s exported
//! span trace through `trace_report` (parse → validate → reconcile →
//! critical path), so a trace that stops reconciling with the counters
//! also fails the sweep. `tools/check.sh` runs this sweep.
//!
//! The sibling binaries (`dynapipe-lint`, every figure bin and
//! `trace_report`) run from the directory holding this executable. If any
//! is missing there, `run_all` first builds them all with one
//! `cargo build -p dynapipe-bench -p dynapipe-lint --bins` in its own
//! profile (`--release` for the usual `target/release/run_all`), and
//! exits nonzero with that command in the message if the build fails.

use std::path::Path;
use std::process::Command;

const FIGURES: &[&str] = &[
    "fig01_dataset",
    "fig03_layer_time",
    "fig05_microbatching_sweep",
    "fig07_noise_robustness",
    "throughput_sweep",
    "fig16_ablation",
    "fig09_cluster",
    "fig17_planning_time",
    "fig18_cost_model_accuracy",
    "ablation_recompute",
];

/// Build the sibling binaries into `dir` unless they are all there
/// already; exits the process if the build fails.
fn ensure_siblings_built(dir: &Path) {
    let missing = ["dynapipe-lint", "trace_report"]
        .iter()
        .chain(FIGURES)
        .any(|name| {
            !dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX))
                .exists()
        });
    if !missing {
        return;
    }
    let mut args = vec!["build"];
    if dir.ends_with("release") {
        args.push("--release");
    }
    args.extend(["-p", "dynapipe-bench", "-p", "dynapipe-lint", "--bins"]);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let command = format!("{cargo} {}", args.join(" "));
    println!("run_all: sibling binaries missing; running `{command}`\n");
    match Command::new(&cargo).args(&args).status() {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("run_all: `{command}` exited with {s}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("run_all: could not launch `{command}`: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("exe dir");
    ensure_siblings_built(dir);
    let mut failures = Vec::new();
    // The static-analysis gate runs first: if the determinism contract
    // is broken at the source level, figure regeneration is meaningless.
    // The lint binary is a workspace sibling, built into the same dir.
    println!("================ dynapipe-lint ================\n");
    match Command::new(dir.join("dynapipe-lint")).status() {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("dynapipe-lint exited with {s}");
            failures.push("dynapipe-lint");
        }
        Err(e) => {
            eprintln!("could not launch dynapipe-lint: {e}");
            failures.push("dynapipe-lint");
        }
    }
    for name in FIGURES {
        println!("\n================ {name} ================\n");
        match Command::new(dir.join(name)).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("could not launch {name}: {e}");
                failures.push(*name);
            }
        }
    }
    // Trace round-trip: fig09_cluster exported its traced cell to
    // results/TRACE_cluster.json; `trace_report` re-parses it, replays
    // validation + counter reconciliation on the file (not the
    // in-memory copy), and recomputes the critical path from the spans
    // — exiting nonzero on malformed JSON, a reconciliation failure, or
    // a critical path that disagrees with the run's exposed-planning
    // accounting.
    println!("\n================ trace_report ================\n");
    match Command::new(dir.join("trace_report"))
        .arg("results/TRACE_cluster.json")
        .status()
    {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("trace_report exited with {s}");
            failures.push("trace_report");
        }
        Err(e) => {
            eprintln!("could not launch trace_report: {e}");
            failures.push("trace_report");
        }
    }
    println!("\n================ summary ================");
    if failures.is_empty() {
        println!(
            "all {} figure binaries completed; results in results/",
            FIGURES.len()
        );
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}
