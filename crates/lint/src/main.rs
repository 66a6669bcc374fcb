//! CLI for `dynapipe-lint`: scan the workspace, print diagnostics and
//! the waiver ledger, write `LINT_report.json` at the workspace root,
//! and exit nonzero on any unwaived finding. Usage:
//!
//! ```text
//! dynapipe-lint [ROOT]
//! ```
//!
//! With no argument the workspace root is found by walking up from the
//! current directory to the first `Cargo.toml` with a `[workspace]`
//! section, falling back to the location this crate was compiled from.

use dynapipe_lint::rules::LintConfig;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let arg_root = std::env::args().nth(1).map(PathBuf::from);
    let root = arg_root
        .or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| dynapipe_lint::find_root(&d))
        })
        .unwrap_or_else(|| {
            // The directory this crate was compiled from: crates/lint/../..
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
        });
    let root = root.canonicalize().unwrap_or(root);

    let cfg = LintConfig::workspace();
    let report = dynapipe_lint::analyze_workspace(&root, &cfg);

    print!("{}", report.render_text());

    let json_path = root.join("LINT_report.json");
    match std::fs::write(&json_path, report.to_json()) {
        Ok(()) => println!("wrote {}", json_path.display()),
        Err(e) => eprintln!(
            "dynapipe-lint: could not write {}: {e}",
            json_path.display()
        ),
    }

    if report.unwaived().is_empty() {
        println!("dynapipe-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dynapipe-lint: {} unwaived finding(s)",
            report.unwaived().len()
        );
        ExitCode::FAILURE
    }
}
