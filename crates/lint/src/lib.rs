//! `dynapipe-lint` — a determinism & concurrency static-analysis pass
//! that guards the `behavior_eq` contract at the source level.
//!
//! The repo's core asset is its differential discipline: every mode,
//! codec, topology, and churn scenario must be bit-identical to a
//! serial oracle. That contract is enforced dynamically by the
//! equivalence suites; this crate enforces it *statically*, before any
//! test runs, by modeling every workspace file with a token-level
//! lexer (no `syn`; the build environment is offline) and checking
//! six rule families — nondeterminism sources, lock-order cycles,
//! recovery-path panics, counter-reconciliation coverage, `unsafe`
//! blocks in behavior crates and the vendored shims (which no other rule
//! sees), and public functions nothing calls. See
//! `LINTS.md` at the workspace root for the full catalogue and the
//! waiver syntax.

pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

use model::FileModel;
use report::{Finding, LintReport, WaiverEntry};
use rules::{LintConfig, RULE_WAIVER};
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, VCS, and the lint's own
/// known-violation fixtures. The vendored shims are scanned, but only for
/// `unsafe` and waivers (`LintConfig::vendored_markers`).
fn excluded(rel: &str) -> bool {
    rel.starts_with("target/")
        || rel.contains("/target/")
        || rel.starts_with(".git/")
        || rel.starts_with("crates/lint/tests/fixtures/")
}

/// Recursively collect the workspace's `.rs` files, sorted by relative
/// path so every downstream artifact is deterministic.
pub fn collect_sources(root: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if excluded(&rel) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                out.push((path, rel));
            }
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    out
}

/// Analyze an explicit set of files (used by the fixture tests).
pub fn analyze_files(files: Vec<(PathBuf, String)>, cfg: &LintConfig) -> LintReport {
    let mut models = Vec::new();
    let mut vendored = Vec::new();
    for (path, rel) in files {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let fm = FileModel::build(path, rel, &src);
        if cfg.is_vendored(&fm.rel) {
            vendored.push(fm);
        } else {
            models.push(fm);
        }
    }
    analyze_models(&models, &vendored, cfg)
}

/// Analyze the whole workspace under `root`.
pub fn analyze_workspace(root: &Path, cfg: &LintConfig) -> LintReport {
    analyze_files(collect_sources(root), cfg)
}

/// Run all rules over prebuilt models, then apply waivers. `vendored`
/// files meet only the `unsafe-block` rule: no other rule looks at them,
/// and their calls keep no workspace function alive.
pub fn analyze_models(
    models: &[FileModel],
    vendored: &[FileModel],
    cfg: &LintConfig,
) -> LintReport {
    let mut report = LintReport {
        files_scanned: models.len() + vendored.len(),
        ..LintReport::default()
    };
    let mut findings: Vec<Finding> = Vec::new();
    for fm in models {
        rules::check_nondeterminism(fm, cfg, &mut findings);
        rules::check_recovery_panics(fm, cfg, &mut findings);
        rules::check_unsafe_blocks(fm, cfg, &mut findings);
    }
    for fm in vendored {
        rules::check_unsafe_blocks(fm, cfg, &mut findings);
    }
    rules::check_lock_order(models, cfg, &mut report, &mut findings);
    rules::check_counter_coverage(models, cfg, &mut report, &mut findings);
    rules::check_pub_uncalled(models, &mut findings);
    let models: Vec<&FileModel> = models.iter().chain(vendored).collect();

    // --- Apply waivers. A waiver covers findings of its rule on its
    // own line or the line directly below (comment-above style). A
    // waiver with an empty reason covers nothing and is itself a
    // finding: the ledger must stay auditable. ---
    let mut used = vec![
        false;
        {
            let mut n = 0;
            for fm in &models {
                n += fm.waivers.len();
            }
            n
        }
    ];
    let mut waiver_index: Vec<(usize, &FileModel, &model::Waiver)> = Vec::new();
    {
        let mut k = 0usize;
        for &fm in &models {
            for w in &fm.waivers {
                waiver_index.push((k, fm, w));
                k += 1;
            }
        }
    }
    for f in findings.iter_mut() {
        for (k, fm, w) in &waiver_index {
            if fm.rel == f.file
                && w.rule == f.rule
                && (w.line == f.line || w.line + 1 == f.line)
                && !w.reason.is_empty()
            {
                f.waived = true;
                f.reason = w.reason.clone();
                used[*k] = true;
                break;
            }
        }
    }
    for (k, fm, w) in &waiver_index {
        report.waivers.push(WaiverEntry {
            file: fm.rel.clone(),
            line: w.line,
            rule: w.rule.clone(),
            reason: w.reason.clone(),
            used: used[*k],
        });
        if w.reason.is_empty() {
            findings.push(Finding {
                rule: RULE_WAIVER.to_string(),
                file: fm.rel.clone(),
                line: w.line,
                message: format!(
                    "waiver `lint:allow({})` has no reason: write \
                     `// lint:allow({}): <why this is safe>`",
                    w.rule, w.rule
                ),
                waived: false,
                reason: String::new(),
            });
        }
    }

    report.findings = findings;
    report.sort();
    report
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
