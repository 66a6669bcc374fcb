//! Seeded-violation tests: every fixture under `tests/fixtures/` must
//! produce exactly the findings it advertises — and the lexer edge-case
//! fixture must produce none at all.

use dynapipe_lint::analyze_files;
use dynapipe_lint::rules::LintConfig;
use std::path::PathBuf;

/// Analyze fixture files together under a fixture-scoped config. Rel
/// paths are rooted at `fix/` so the config markers are independent of
/// the workspace layout.
fn lint_fixtures(names: &[&str]) -> dynapipe_lint::report::LintReport {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let rels: Vec<String> = names.iter().map(|n| format!("fix/{n}")).collect();
    let cfg = LintConfig {
        behavior_markers: vec!["fix/".to_string()],
        lock_files: rels.clone(),
        recovery_file_markers: Vec::new(),
        recovery_keywords: vec!["reissue".to_string()],
        recovery_calls: Vec::new(),
        counter_structs: vec!["FixtureChurn".to_string()],
        vendored_markers: vec!["fix/vendored_".to_string()],
    };
    let files = names.iter().map(|n| dir.join(n)).zip(rels).collect();
    analyze_files(files, &cfg)
}

fn lint_fixture(name: &str) -> dynapipe_lint::report::LintReport {
    lint_fixtures(&[name])
}

fn rules_of(report: &dynapipe_lint::report::LintReport) -> Vec<String> {
    report.unwaived().iter().map(|f| f.rule.clone()).collect()
}

fn count(rules: &[String], rule: &str) -> usize {
    rules.iter().filter(|r| r.as_str() == rule).count()
}

#[test]
fn nondet_fixture_trips_every_rule1_pattern() {
    let report = lint_fixture("nondet.rs");
    let rules = rules_of(&report);
    assert_eq!(
        count(&rules, "wall-clock"),
        2,
        "Instant::now + SystemTime: {rules:?}"
    );
    assert_eq!(count(&rules, "thread-id"), 1, "thread::current: {rules:?}");
    assert_eq!(
        count(&rules, "hash-iter"),
        3,
        ".iter() on a field, .keys() on a field, for over a binding: {rules:?}"
    );
}

#[test]
fn lock_cycle_fixture_is_detected() {
    let report = lint_fixture("lock_cycle.rs");
    assert_eq!(
        rules_of(&report),
        vec!["lock-order"],
        "exactly the AB/BA cycle"
    );
    assert_eq!(report.cycles.len(), 1, "one cycle: {:?}", report.cycles);
    let cycle = &report.cycles[0];
    assert!(
        cycle.contains(&"Pair.a".to_string()) && cycle.contains(&"Pair.b".to_string()),
        "cycle names both locks: {cycle:?}"
    );
    // The helper-propagated a -> b edge must be in the graph.
    assert!(
        report
            .edges
            .iter()
            .any(|e| e.from == "Pair.a" && e.to == "Pair.b" && e.count >= 2),
        "direct + helper-propagated a->b edges: {:?}",
        report.edges
    );
}

#[test]
fn recovery_panic_fixture_flags_only_the_recovery_fn() {
    let report = lint_fixture("recovery_panic.rs");
    let rules = rules_of(&report);
    assert_eq!(
        count(&rules, "recovery-panic"),
        2,
        ".unwrap() and .expect(\"\") in reissue_tickets only: {rules:?}"
    );
    assert!(
        report
            .unwaived()
            .iter()
            .all(|f| f.message.contains("reissue_tickets")),
        "calm_path must stay clean: {:?}",
        report.findings
    );
}

#[test]
fn counter_fixture_flags_the_write_only_field() {
    let report = lint_fixture("counter.rs");
    let unwaived = report.unwaived();
    assert_eq!(unwaived.len(), 1, "{:?}", report.findings);
    assert_eq!(unwaived[0].rule, "counter-unread");
    assert!(
        unwaived[0].message.contains("orphaned"),
        "the untested counter is `orphaned`: {}",
        unwaived[0].message
    );
    // `reissued` is referenced by the fixture's own test module.
    assert!(
        report
            .counters
            .iter()
            .any(|(s, f, _, _, referenced)| s == "FixtureChurn" && f == "reissued" && *referenced),
        "{:?}",
        report.counters
    );
}

#[test]
fn waiver_fixture_separates_reasoned_from_reasonless() {
    let report = lint_fixture("waived.rs");
    // The reasoned wall-clock waiver covers its finding.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "wall-clock" && f.waived && f.reason.contains("stats-only")),
        "{:?}",
        report.findings
    );
    // The reasonless hash-iter waiver covers nothing: the finding stays
    // unwaived AND the waiver itself is flagged.
    let rules = rules_of(&report);
    assert_eq!(count(&rules, "hash-iter"), 1, "{rules:?}");
    assert_eq!(count(&rules, "waiver-no-reason"), 1, "{rules:?}");
    // The ledger records both waivers, used and unused.
    assert_eq!(report.waivers.len(), 2, "{:?}", report.waivers);
    assert!(report.waivers.iter().any(|w| w.used));
    assert!(report.waivers.iter().any(|w| !w.used));
}

#[test]
fn unsafe_block_fixture_counts_exactly() {
    let report = lint_fixture("unsafe_block.rs");
    let rules = rules_of(&report);
    assert_eq!(
        count(&rules, "unsafe-block"),
        3,
        "the raw block, the unsafe fn and the block after the test module; \
         comment/string/test decoys stay silent: {rules:?}"
    );
    // The sanctioned block is covered by its reasoned waiver, and the
    // ledger records the waiver as used.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "unsafe-block" && f.waived && f.reason.contains("sanctioned")),
        "{:?}",
        report.findings
    );
    assert_eq!(report.waivers.len(), 1, "{:?}", report.waivers);
    assert!(report.waivers[0].used);
}

#[test]
fn vendored_fixture_meets_only_the_unsafe_rule() {
    let report = lint_fixtures(&[
        "vendored_unsafe.rs",
        "pub_uncalled.rs",
        "pub_uncalled_caller.rs",
    ]);
    let vendored: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "fix/vendored_unsafe.rs")
        .collect();
    assert_eq!(vendored.len(), 2, "{vendored:?}");
    assert!(
        vendored.iter().all(|f| f.rule == "unsafe-block"),
        "{vendored:?}"
    );
    assert_eq!(
        vendored.iter().filter(|f| f.waived).count(),
        1,
        "the waived block is covered, the raw one is not: {vendored:?}"
    );
    assert!(
        report
            .waivers
            .iter()
            .any(|w| w.file == "fix/vendored_unsafe.rs" && w.used),
        "the vendored waiver is in the ledger: {:?}",
        report.waivers
    );
    // The vendored call of `never_called` keeps it flagged.
    assert_eq!(
        count(&rules_of(&report), "pub-uncalled"),
        5,
        "{:?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 3);
}

#[test]
fn pub_uncalled_fixture_flags_exactly_the_uncalled_fns() {
    let report = lint_fixtures(&["pub_uncalled.rs", "pub_uncalled_caller.rs"]);
    let unwaived = report.unwaived();
    assert_eq!(
        count(&rules_of(&report), "pub-uncalled"),
        5,
        "uncalled, pub-use-only, test-only, name-shared-with-a-field and after-the-tests; \
         the cross-file call and function pointer stay clean: {:?}",
        report.findings
    );
    assert_eq!(unwaived.len(), 5, "{:?}", report.findings);
    for name in [
        "never_called",
        "reexported_only",
        "called_from_tests_only",
        "reading",
        "after_the_tests",
    ] {
        assert!(
            unwaived
                .iter()
                .any(|f| f.message.contains(&format!("`pub fn {name}`"))),
            "{name} must be flagged: {:?}",
            report.findings
        );
    }
    for name in ["called_elsewhere", "used_as_pointer"] {
        assert!(
            unwaived.iter().all(|f| !f.message.contains(name)),
            "{name}: a call or path from another file counts: {:?}",
            report.findings
        );
    }
}

#[test]
fn lexer_edge_fixture_is_silent() {
    let report = lint_fixture("lexer_edge.rs");
    assert!(
        report.findings.is_empty(),
        "fake markers inside strings/comments must not lex as code: {:?}",
        report.findings
    );
    assert!(
        report.waivers.is_empty(),
        "the fake waiver lives inside a string literal: {:?}",
        report.waivers
    );
}
