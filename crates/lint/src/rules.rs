//! The rule families.
//!
//! 1. `wall-clock` / `thread-id` / `hash-iter` — nondeterminism sources
//!    in behavior-affecting crates.
//! 2. `lock-order` — cycles in the lock-acquisition graph extracted
//!    from guard scopes (propagated through direct calls).
//! 3. `recovery-panic` — `.unwrap()` / `.expect("")` inside
//!    churn/re-issue/poison handling.
//! 4. `counter-unread` — ledger counters never referenced by any test.
//! 5. `unsafe-block` — any `unsafe` in behavior-affecting crates or the
//!    vendored shims.
//! 6. `pub-uncalled` — a `pub fn` that no non-test code calls.

use crate::model::{FileModel, FnDecl};
use crate::report::{Finding, LintReport, LockEdge};
use std::collections::{BTreeMap, BTreeSet};

pub const RULE_WALL: &str = "wall-clock";
pub const RULE_THREAD: &str = "thread-id";
pub const RULE_HASH: &str = "hash-iter";
pub const RULE_LOCK: &str = "lock-order";
pub const RULE_PANIC: &str = "recovery-panic";
pub const RULE_COUNTER: &str = "counter-unread";
pub const RULE_WAIVER: &str = "waiver-no-reason";
pub const RULE_UNSAFE: &str = "unsafe-block";
pub const RULE_UNCALLED: &str = "pub-uncalled";

/// What the analyzer looks for and where. `workspace()` is the repo's
/// instance; fixture tests construct their own.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Rel-path prefixes whose files are behavior-affecting (rule 1).
    pub behavior_markers: Vec<String>,
    /// Rel paths (exact or suffix) whose lock fields feed rule 2.
    pub lock_files: Vec<String>,
    /// Rel-path substrings marking whole files as recovery code (rule 3).
    pub recovery_file_markers: Vec<String>,
    /// Function-name substrings marking recovery code (rule 3).
    pub recovery_keywords: Vec<String>,
    /// Callee names whose direct callers count as recovery code (rule 3).
    pub recovery_calls: Vec<String>,
    /// Struct names whose fields are audited counters (rule 4).
    pub counter_structs: Vec<String>,
    /// Rel-path prefixes of vendored stand-ins for published crates: only
    /// rule 5 and the waiver ledger see them.
    pub vendored_markers: Vec<String>,
}

impl LintConfig {
    /// The workspace's own configuration.
    pub fn workspace() -> LintConfig {
        LintConfig {
            behavior_markers: [
                "core", "cluster", "sim", "batcher", "cost", "data", "schedule", "trace",
            ]
            .iter()
            .map(|c| format!("crates/{c}/"))
            .collect(),
            lock_files: [
                "crates/core/src/runtime.rs",
                "crates/core/src/store.rs",
                "crates/cluster/src/runtime.rs",
                "crates/cluster/src/churn.rs",
                "crates/data/src/minibatch.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            recovery_file_markers: vec!["churn".to_string()],
            recovery_keywords: [
                "reissue",
                "abandon",
                "poison",
                "churn",
                "straggle",
                "recover",
                "rebalance",
                "crash",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            recovery_calls: [
                "reissue",
                "reissue_claimed_by",
                "abandon",
                "poison",
                "push_discarding",
                "take_straggle",
                "crash",
                "clear_remaining",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            counter_structs: [
                "QueueChurn",
                "ChurnStats",
                "StoreStats",
                "ShardStats",
                "RuntimeStats",
                "TraceCounters",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            vendored_markers: vec!["crates/shims/".to_string()],
        }
    }

    fn is_behavior(&self, rel: &str) -> bool {
        self.behavior_markers.iter().any(|m| rel.starts_with(m))
    }

    /// Whether `rel` is vendored code (see `vendored_markers`).
    pub(crate) fn is_vendored(&self, rel: &str) -> bool {
        self.vendored_markers.iter().any(|m| rel.starts_with(m))
    }

    fn is_lock_file(&self, rel: &str) -> bool {
        self.lock_files.iter().any(|m| rel == m || rel.ends_with(m))
    }
}

// ---------------------------------------------------------------------
// Rule 1: nondeterminism sources.
// ---------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Names in this file whose type involves `HashMap`/`HashSet`: struct
/// fields, hash aliases, and `let` bindings whose statement mentions a
/// hash type.
fn collect_hash_names(fm: &FileModel) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = BTreeSet::new();
    let is_hash_ty = |ty: &str| {
        ty.contains("HashMap")
            || ty.contains("HashSet")
            || fm.hash_aliases.iter().any(|a| ty.contains(a.as_str()))
    };
    for s in &fm.structs {
        for f in &s.fields {
            if is_hash_ty(&f.ty) {
                names.insert(f.name.clone());
            }
        }
    }
    let toks = &fm.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            // Binding name: first ident in the pattern that isn't `mut`
            // or a constructor.
            let mut j = i + 1;
            let mut bound: Option<String> = None;
            while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                let t = &toks[j];
                if t.kind == crate::lexer::TokKind::Ident
                    && !matches!(t.text.as_str(), "mut" | "Some" | "Ok" | "Err" | "None")
                {
                    bound = Some(t.text.clone());
                    break;
                }
                j += 1;
            }
            // Scan the whole statement for hash types.
            let mut k = i + 1;
            let mut hash = false;
            while k < toks.len() && !toks[k].is_punct(';') {
                let t = &toks[k];
                if t.is_ident("HashMap")
                    || t.is_ident("HashSet")
                    || (t.kind == crate::lexer::TokKind::Ident
                        && fm.hash_aliases.iter().any(|a| a == &t.text))
                {
                    hash = true;
                }
                k += 1;
            }
            if hash {
                if let Some(b) = bound {
                    names.insert(b);
                }
            }
            i = k;
            continue;
        }
        i += 1;
    }
    names
}

/// Rule 1 over one file.
pub fn check_nondeterminism(fm: &FileModel, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !cfg.is_behavior(&fm.rel) || fm.is_test_file {
        return;
    }
    let hash_names = collect_hash_names(fm);
    let toks = &fm.toks;
    let push = |out: &mut Vec<Finding>, rule: &str, line: u32, msg: String| {
        out.push(Finding {
            rule: rule.to_string(),
            file: fm.rel.clone(),
            line,
            message: msg,
            waived: false,
            reason: String::new(),
        });
    };
    for i in 0..toks.len() {
        if fm.in_test(i) {
            continue;
        }
        let t = &toks[i];
        // Instant::now
        if t.is_ident("Instant")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("now")
        {
            push(
                out,
                RULE_WALL,
                t.line,
                "`Instant::now()` in a behavior-affecting crate: wall-clock must stay \
                 in stats fields excluded from behavior_eq"
                    .to_string(),
            );
        }
        // SystemTime usage (`SystemTime::…`); a bare import is inert.
        if t.is_ident("SystemTime") && i + 1 < toks.len() && toks[i + 1].is_punct(':') {
            push(
                out,
                RULE_WALL,
                t.line,
                "`SystemTime` in a behavior-affecting crate".to_string(),
            );
        }
        // thread::current / ThreadId.
        if t.is_ident("ThreadId") {
            push(
                out,
                RULE_THREAD,
                t.line,
                "`ThreadId` in a behavior-affecting crate".to_string(),
            );
        }
        if t.is_ident("thread")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("current")
        {
            push(
                out,
                RULE_THREAD,
                t.line,
                "`thread::current()` in a behavior-affecting crate".to_string(),
            );
        }
        // name.<iter-method>( on a hash-typed name.
        if t.kind == crate::lexer::TokKind::Ident
            && hash_names.contains(&t.text)
            && i + 3 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == crate::lexer::TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].is_punct('(')
        {
            push(
                out,
                RULE_HASH,
                toks[i + 2].line,
                format!(
                    "iteration over hash container `{}` (`.{}()`): order depends on \
                     RandomState and may leak into bytes or rollups",
                    t.text,
                    toks[i + 2].text
                ),
            );
        }
        // for … in <path ending in a hash-typed name> { …
        if t.is_ident("for") {
            let mut j = i + 1;
            while j < toks.len()
                && !toks[j].is_ident("in")
                && !toks[j].is_punct('{')
                && !toks[j].is_punct(';')
            {
                j += 1;
            }
            if j < toks.len() && toks[j].is_ident("in") {
                let mut k = j + 1;
                let mut simple = true;
                let mut last_ident: Option<&str> = None;
                while k < toks.len() && !toks[k].is_punct('{') {
                    let tt = &toks[k];
                    match tt.kind {
                        crate::lexer::TokKind::Ident => {
                            if tt.text == "mut" {
                                // ok
                            } else {
                                last_ident = Some(&tt.text);
                            }
                        }
                        crate::lexer::TokKind::Punct
                            if matches!(tt.text.as_str(), "." | "&" | "*") => {}
                        _ => {
                            simple = false;
                        }
                    }
                    k += 1;
                }
                if simple {
                    if let Some(name) = last_ident {
                        if hash_names.contains(name) {
                            push(
                                out,
                                RULE_HASH,
                                toks[j].line,
                                format!(
                                    "`for` loop over hash container `{name}`: iteration \
                                     order depends on RandomState"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: lock-order cycles.
// ---------------------------------------------------------------------

/// Methods whose registry entries are never resolved by bare-name
/// uniqueness: too generic, they collide with std container methods.
const GENERIC_METHOD_NAMES: &[&str] = &[
    "len", "is_empty", "clone", "new", "default", "get", "insert", "remove", "push", "pop",
    "contains", "iter", "next", "fmt", "drop", "take", "wait", "notify",
];

#[derive(Debug, Clone)]
struct FnInfo {
    file_idx: usize,
    ctx: Option<String>,
    name: String,
    guard_returning: bool,
    /// Locks this function acquires in its own body. For a
    /// guard-returning helper these are the locks whose guards can
    /// escape to the caller — call-propagated acquisitions (the
    /// `acquires` closure) are released inside the callee and must not
    /// be treated as held at the call site.
    direct: BTreeSet<String>,
    /// Locks this function acquires (direct, then closed over callees).
    acquires: BTreeSet<String>,
    /// (ctx hint, callee name) of direct calls.
    calls: Vec<(Option<String>, String)>,
    body_open: usize,
}

/// Resolve the lock behind `recv.lock()` / `recv.read()` / `recv.write()`.
fn resolve_lock(
    recv: &str,
    impl_ctx: Option<&str>,
    field_owners: &BTreeMap<String, Vec<String>>,
    locals: &BTreeMap<String, String>,
) -> Option<String> {
    if let Some(id) = locals.get(recv) {
        return Some(id.clone());
    }
    let owners = field_owners.get(recv)?;
    if let Some(ctx) = impl_ctx {
        if owners.iter().any(|o| o == ctx) {
            return Some(format!("{ctx}.{recv}"));
        }
    }
    if owners.len() == 1 {
        return Some(format!("{}.{recv}", owners[0]));
    }
    None
}

/// Local `let x = Mutex::new(…)` / `let x: Mutex<…> = …` bindings.
fn collect_local_locks(fm: &FileModel, f: &FnDecl) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let toks = &fm.toks;
    let mut i = f.body_open;
    while i < f.body_close {
        if toks[i].is_ident("let") {
            let mut bound: Option<String> = None;
            let mut j = i + 1;
            while j < f.body_close && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                let t = &toks[j];
                if t.kind == crate::lexer::TokKind::Ident
                    && !matches!(t.text.as_str(), "mut" | "Some" | "Ok" | "Err" | "None")
                {
                    bound = Some(t.text.clone());
                    break;
                }
                j += 1;
            }
            let mut k = i + 1;
            let mut locky = false;
            while k < f.body_close && !toks[k].is_punct(';') {
                if toks[k].is_ident("Mutex") || toks[k].is_ident("RwLock") {
                    locky = true;
                }
                k += 1;
            }
            if locky {
                if let Some(b) = bound {
                    out.insert(b.clone(), format!("{}::{b}", f.name));
                }
            }
            i = k;
            continue;
        }
        i += 1;
    }
    out
}

/// One guard currently held during the pass-2 walk.
#[derive(Debug, Clone)]
struct ActiveGuard {
    lock: String,
    var: Option<String>,
    /// Guard survives while brace depth >= expire_depth.
    expire_depth: i32,
    /// Transient guards also die at the next `;` at their depth.
    transient: bool,
}

/// Rule 2 across all lock files.
pub fn check_lock_order(
    models: &[FileModel],
    cfg: &LintConfig,
    report: &mut LintReport,
    out: &mut Vec<Finding>,
) {
    // --- Collect lock fields: field name -> owning structs. ---
    let mut field_owners: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut all_locks: BTreeSet<String> = BTreeSet::new();
    let lock_file_idxs: Vec<usize> = models
        .iter()
        .enumerate()
        .filter(|(_, fm)| cfg.is_lock_file(&fm.rel))
        .map(|(i, _)| i)
        .collect();
    for &fi in &lock_file_idxs {
        let fm = &models[fi];
        for s in &fm.structs {
            for f in &s.fields {
                if f.ty.contains("Mutex <") || f.ty.contains("RwLock <") {
                    field_owners
                        .entry(f.name.clone())
                        .or_default()
                        .push(s.name.clone());
                    all_locks.insert(format!("{}.{}", s.name, f.name));
                }
            }
        }
    }

    // --- Pass 1: per-function direct acquisitions and call lists. ---
    let mut registry: Vec<FnInfo> = Vec::new();
    for &fi in &lock_file_idxs {
        let fm = &models[fi];
        for f in &fm.functions {
            if fm.in_test(f.body_open) {
                continue;
            }
            let locals = collect_local_locks(fm, f);
            for id in locals.values() {
                all_locks.insert(id.clone());
            }
            let mut info = FnInfo {
                file_idx: fi,
                ctx: f.impl_ctx.clone(),
                name: f.name.clone(),
                guard_returning: f.sig.contains("Guard"),
                direct: BTreeSet::new(),
                acquires: BTreeSet::new(),
                calls: Vec::new(),
                body_open: f.body_open,
            };
            let toks = &fm.toks;
            let mut i = f.body_open;
            while i + 2 < f.body_close {
                let t = &toks[i];
                if t.kind == crate::lexer::TokKind::Ident && toks[i + 1].is_punct('(') {
                    let prev_dot = i >= 1 && toks[i - 1].is_punct('.');
                    let prev_colon = i >= 1 && toks[i - 1].is_punct(':');
                    if matches!(t.text.as_str(), "lock" | "read" | "write") && prev_dot {
                        // Direct acquisition if the receiver resolves.
                        if i >= 2 {
                            let recv = &toks[i - 2];
                            if recv.kind == crate::lexer::TokKind::Ident {
                                if let Some(id) = resolve_lock(
                                    &recv.text,
                                    f.impl_ctx.as_deref(),
                                    &field_owners,
                                    &locals,
                                ) {
                                    info.direct.insert(id.clone());
                                    info.acquires.insert(id);
                                    i += 1;
                                    continue;
                                }
                            }
                        }
                    }
                    // Method / path / plain call.
                    let hint = if prev_dot && i >= 2 && toks[i - 2].is_ident("self") {
                        f.impl_ctx.clone()
                    } else if prev_colon
                        && i >= 3
                        && toks[i - 3].kind == crate::lexer::TokKind::Ident
                    {
                        Some(toks[i - 3].text.clone())
                    } else {
                        None
                    };
                    if !matches!(
                        t.text.as_str(),
                        "if" | "while" | "for" | "match" | "loop" | "return"
                    ) {
                        info.calls.push((hint, t.text.clone()));
                    }
                }
                i += 1;
            }
            registry.push(info);
        }
    }

    // --- Fixpoint: close acquire sets over resolvable callees. ---
    let resolve_callee =
        |hint: &Option<String>, name: &str, registry: &[FnInfo]| -> Option<usize> {
            let matches: Vec<usize> = registry
                .iter()
                .enumerate()
                .filter(|(_, fi)| fi.name == name)
                .map(|(i, _)| i)
                .collect();
            if matches.is_empty() {
                return None;
            }
            if let Some(h) = hint {
                if let Some(&i) = matches
                    .iter()
                    .find(|&&i| registry[i].ctx.as_deref() == Some(h.as_str()))
                {
                    return Some(i);
                }
            }
            if matches.len() == 1 && !GENERIC_METHOD_NAMES.contains(&name) {
                return Some(matches[0]);
            }
            None
        };
    for _ in 0..8 {
        let mut changed = false;
        for i in 0..registry.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for (hint, name) in registry[i].calls.clone() {
                if let Some(ci) = resolve_callee(&hint, &name, &registry) {
                    for l in &registry[ci].acquires {
                        if !registry[i].acquires.contains(l) {
                            add.insert(l.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                registry[i].acquires.extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // --- Pass 2: walk each body tracking held guards; record edges. ---
    let mut edges: BTreeMap<(String, String), (String, u32, usize)> = BTreeMap::new();
    for ri in 0..registry.len() {
        let info = registry[ri].clone();
        let fm = &models[info.file_idx];
        let f = fm
            .functions
            .iter()
            .find(|f| f.body_open == info.body_open)
            .expect("registry entries index into their own file's functions");
        let locals = collect_local_locks(fm, f);
        let toks = &fm.toks;
        let mut depth = 0i32;
        let mut active: Vec<ActiveGuard> = Vec::new();
        // Pending `let` binding: (var, expire_depth, terminator punct).
        let mut pending: Option<(Option<String>, i32, char)> = None;
        let mut i = f.body_open + 1;
        let record_edges =
            |active: &[ActiveGuard],
             lock: &str,
             line: u32,
             edges: &mut BTreeMap<(String, String), (String, u32, usize)>| {
                for g in active {
                    let key = (g.lock.clone(), lock.to_string());
                    let e = edges
                        .entry(key)
                        .or_insert_with(|| (fm.rel.clone(), line, 0));
                    e.2 += 1;
                }
            };
        while i < f.body_close {
            let t = &toks[i];
            if t.is_punct('{') {
                if let Some((_, _, '{')) = pending {
                    pending = None;
                }
                depth += 1;
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                depth -= 1;
                active.retain(|g| g.expire_depth <= depth);
                i += 1;
                continue;
            }
            if t.is_punct(';') {
                if let Some((_, d, ';')) = pending {
                    if d == depth {
                        pending = None;
                    }
                }
                active.retain(|g| !(g.transient && g.expire_depth == depth));
                i += 1;
                continue;
            }
            if t.is_ident("let") {
                let if_while =
                    i >= 1 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
                let mut j = i + 1;
                let mut bound: Option<String> = None;
                while j < f.body_close && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                    let tt = &toks[j];
                    if tt.kind == crate::lexer::TokKind::Ident
                        && !matches!(tt.text.as_str(), "mut" | "Some" | "Ok" | "Err" | "None")
                    {
                        bound = Some(tt.text.clone());
                        break;
                    }
                    j += 1;
                }
                pending = if if_while {
                    Some((bound, depth + 1, '{'))
                } else {
                    Some((bound, depth, ';'))
                };
                i += 1;
                continue;
            }
            // drop(x) / mem::drop(x)
            if t.is_ident("drop")
                && i + 3 < f.body_close
                && toks[i + 1].is_punct('(')
                && toks[i + 2].kind == crate::lexer::TokKind::Ident
                && toks[i + 3].is_punct(')')
            {
                let var = toks[i + 2].text.clone();
                active.retain(|g| g.var.as_deref() != Some(var.as_str()));
                i += 4;
                continue;
            }
            if t.kind == crate::lexer::TokKind::Ident
                && i + 1 < f.body_close
                && toks[i + 1].is_punct('(')
            {
                let prev_dot = i >= 1 && toks[i - 1].is_punct('.');
                let prev_colon = i >= 1 && toks[i - 1].is_punct(':');
                // Direct acquisition.
                if matches!(t.text.as_str(), "lock" | "read" | "write") && prev_dot && i >= 2 {
                    let recv = &toks[i - 2];
                    if recv.kind == crate::lexer::TokKind::Ident {
                        if let Some(id) =
                            resolve_lock(&recv.text, f.impl_ctx.as_deref(), &field_owners, &locals)
                        {
                            record_edges(&active, &id, t.line, &mut edges);
                            if let Some((var, d, _)) = &pending {
                                active.push(ActiveGuard {
                                    lock: id,
                                    var: var.clone(),
                                    expire_depth: *d,
                                    transient: false,
                                });
                            } else {
                                active.push(ActiveGuard {
                                    lock: id,
                                    var: None,
                                    expire_depth: depth,
                                    transient: true,
                                });
                            }
                            i += 1;
                            continue;
                        }
                    }
                }
                // Helper call with a known acquire set.
                let hint = if prev_dot && i >= 2 && toks[i - 2].is_ident("self") {
                    f.impl_ctx.clone()
                } else if prev_colon && i >= 3 && toks[i - 3].kind == crate::lexer::TokKind::Ident {
                    Some(toks[i - 3].text.clone())
                } else {
                    None
                };
                if let Some(ci) = resolve_callee(&hint, &t.text, &registry) {
                    let callee = &registry[ci];
                    if !callee.acquires.is_empty() {
                        for l in callee.acquires.clone() {
                            record_edges(&active, &l, t.line, &mut edges);
                            // Only the helper's own (direct) guards can
                            // escape to the caller; call-propagated
                            // acquisitions were released inside it.
                            if callee.guard_returning && callee.direct.contains(&l) {
                                if let Some((var, d, _)) = &pending {
                                    active.push(ActiveGuard {
                                        lock: l,
                                        var: var.clone(),
                                        expire_depth: *d,
                                        transient: false,
                                    });
                                } else {
                                    active.push(ActiveGuard {
                                        lock: l,
                                        var: None,
                                        expire_depth: depth,
                                        transient: true,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    }

    // --- Report the graph. ---
    report.locks = all_locks.iter().cloned().collect();
    for ((from, to), (file, line, count)) in &edges {
        report.edges.push(LockEdge {
            from: from.clone(),
            to: to.clone(),
            file: file.clone(),
            line: *line,
            count: *count,
        });
    }

    // --- Cycle detection (DFS over the deduped edge set). ---
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for ((from, to), _) in &edges {
        adj.entry(from).or_default().push(to);
    }
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        if visited.contains(start) {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut path: Vec<&str> = Vec::new();
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        while let Some((node, ni)) = stack.pop() {
            if ni == 0 {
                path.push(node);
                visited.insert(node);
            }
            let next = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if ni < next.len() {
                stack.push((node, ni + 1));
                let succ = next[ni];
                if let Some(pos) = path.iter().position(|&p| p == succ) {
                    // Cycle: path[pos..] + succ.
                    let mut cyc: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                    cyc.push(succ.to_string());
                    // Normalize: rotate so the smallest element leads.
                    let mut core = cyc[..cyc.len() - 1].to_vec();
                    let min_i = core
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    core.rotate_left(min_i);
                    let mut norm = core.clone();
                    norm.push(core[0].clone());
                    if seen_cycles.insert(norm.clone()) {
                        let closing = (path[path.len() - 1].to_string(), succ.to_string());
                        let (file, line, _) =
                            edges
                                .get(&closing)
                                .cloned()
                                .unwrap_or((String::new(), 0, 0));
                        out.push(Finding {
                            rule: RULE_LOCK.to_string(),
                            file,
                            line,
                            message: format!(
                                "lock-order cycle: {} (a thread holding one side can \
                                 deadlock the other)",
                                norm.join(" -> ")
                            ),
                            waived: false,
                            reason: String::new(),
                        });
                        report.cycles.push(norm);
                    }
                    continue;
                }
                if !visited.contains(succ) {
                    stack.push((succ, 0));
                }
            } else {
                path.pop();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: recovery-path panic audit.
// ---------------------------------------------------------------------

/// Rule 3 over one file.
pub fn check_recovery_panics(fm: &FileModel, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if fm.is_test_file {
        return;
    }
    let file_is_recovery = cfg
        .recovery_file_markers
        .iter()
        .any(|m| fm.rel.contains(m.as_str()));
    let toks = &fm.toks;
    for f in &fm.functions {
        if fm.in_test(f.body_open) {
            continue;
        }
        let name_match = cfg
            .recovery_keywords
            .iter()
            .any(|k| f.name.contains(k.as_str()));
        let call_match = || {
            let mut i = f.body_open;
            while i + 1 < f.body_close {
                if toks[i].kind == crate::lexer::TokKind::Ident
                    && toks[i + 1].is_punct('(')
                    && cfg.recovery_calls.iter().any(|c| c == &toks[i].text)
                {
                    return true;
                }
                i += 1;
            }
            false
        };
        if !(file_is_recovery || name_match || call_match()) {
            continue;
        }
        let mut i = f.body_open;
        while i + 3 < f.body_close {
            if toks[i].is_punct('.')
                && toks[i + 1].is_ident("unwrap")
                && toks[i + 2].is_punct('(')
                && toks[i + 3].is_punct(')')
            {
                out.push(Finding {
                    rule: RULE_PANIC.to_string(),
                    file: fm.rel.clone(),
                    line: toks[i + 1].line,
                    message: format!(
                        "`.unwrap()` in recovery path `{}`: a panic here converts \
                         recoverable churn into fail-stop poison",
                        f.name
                    ),
                    waived: false,
                    reason: String::new(),
                });
            }
            if toks[i].is_punct('.')
                && toks[i + 1].is_ident("expect")
                && toks[i + 2].is_punct('(')
                && toks[i + 3].kind == crate::lexer::TokKind::Str
                && toks[i + 3].text.trim_matches('"').is_empty()
            {
                out.push(Finding {
                    rule: RULE_PANIC.to_string(),
                    file: fm.rel.clone(),
                    line: toks[i + 1].line,
                    message: format!("unmessaged `.expect(\"\")` in recovery path `{}`", f.name),
                    waived: false,
                    reason: String::new(),
                });
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Rule 5: no unwaived `unsafe` in behavior crates or the shims.
// ---------------------------------------------------------------------

/// Rule 5 over one file: flag every `unsafe` token in a behavior crate or
/// a vendored shim.
///
/// The zero-copy flat codec is specified as safe code — explicit
/// little-endian byte reads behind bounds-checked accessors — precisely
/// so that a corrupt or truncated wire blob can never become undefined
/// behavior. An `unsafe` block (transmute-based casting, unchecked
/// indexing) would silently void that guarantee, so the absence of
/// `unsafe` is enforced here, not just by review. The lexer strips
/// comments and keeps string contents out of ident tokens, so prose
/// mentioning "unsafe" never trips this rule; the waiver syntax
/// (`lint:allow(unsafe-block): <why>`) applies as usual.
///
/// The shims are flagged too: the runtimes run on them, so an `unsafe` in
/// the rayon shim's pool is as much a part of every run as one in the
/// codec. There a waiver whose reason states why the block is sound is
/// the expected outcome.
pub fn check_unsafe_blocks(fm: &FileModel, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let vendored = cfg.is_vendored(&fm.rel);
    if !(vendored || cfg.is_behavior(&fm.rel)) || fm.is_test_file {
        return;
    }
    let message = if vendored {
        "`unsafe` in a vendored shim: the runtimes run on it, so state why it is sound \
         in a `lint:allow(unsafe-block)` waiver"
    } else {
        "`unsafe` in a behavior-affecting crate: the wire formats and engines are \
         specified as safe code so corrupt blobs can never become undefined behavior"
    };
    for (i, t) in fm.toks.iter().enumerate() {
        if fm.in_test(i) {
            continue;
        }
        if t.is_ident("unsafe") {
            out.push(Finding {
                rule: RULE_UNSAFE.to_string(),
                file: fm.rel.clone(),
                line: t.line,
                message: message.to_string(),
                waived: false,
                reason: String::new(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: counter-reconciliation coverage.
// ---------------------------------------------------------------------

/// Rule 4 across all files.
pub fn check_counter_coverage(
    models: &[FileModel],
    cfg: &LintConfig,
    report: &mut LintReport,
    out: &mut Vec<Finding>,
) {
    // Identifiers appearing anywhere in test code.
    let mut test_idents: BTreeSet<&str> = BTreeSet::new();
    for fm in models {
        for (i, t) in fm.toks.iter().enumerate() {
            if t.kind == crate::lexer::TokKind::Ident && fm.in_test(i) {
                test_idents.insert(&t.text);
            }
        }
    }
    for fm in models {
        for s in &fm.structs {
            if !cfg.counter_structs.iter().any(|c| c == &s.name) {
                continue;
            }
            for f in &s.fields {
                let referenced = test_idents.contains(f.name.as_str());
                report.counters.push((
                    s.name.clone(),
                    f.name.clone(),
                    fm.rel.clone(),
                    f.line,
                    referenced,
                ));
                if !referenced {
                    out.push(Finding {
                        rule: RULE_COUNTER.to_string(),
                        file: fm.rel.clone(),
                        line: f.line,
                        message: format!(
                            "counter `{}.{}` is never referenced by any test: a \
                             write-only ledger field cannot catch a reconciliation bug",
                            s.name, f.name
                        ),
                        waived: false,
                        reason: String::new(),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 6: public functions nothing calls.
// ---------------------------------------------------------------------

/// Rule 6 across all files: flag a non-test `pub fn` that no non-test
/// code uses. A use is a call (`name(`, `.name(`, `Type::name(`, or
/// with a turbofish, `name::<T>(`) or a path (`Type::name`,
/// `Self::name`, `module::name`), which may be a function pointer; `fn`
/// definitions and `use …;` items are not uses (a re-export names a
/// function without calling it). Matching is still by name, not by
/// type, so a call of another function with the same name keeps a dead
/// one alive; a field, local or parameter of that name does not.
pub fn check_pub_uncalled(models: &[FileModel], out: &mut Vec<Finding>) {
    let mut called: BTreeSet<&str> = BTreeSet::new();
    for fm in models {
        let toks = &fm.toks;
        let punct = |i: usize, c: char| toks.get(i).is_some_and(|t| t.is_punct(c));
        let mut in_use = false;
        for (i, t) in toks.iter().enumerate() {
            in_use = (in_use || t.is_ident("use")) && !t.is_punct(';');
            let is_def = i >= 1 && toks[i - 1].is_ident("fn");
            if t.kind != crate::lexer::TokKind::Ident || in_use || is_def || fm.in_test(i) {
                continue;
            }
            let turbofish = punct(i + 1, ':') && punct(i + 2, ':') && punct(i + 3, '<');
            let call = punct(i + 1, '(') || turbofish;
            let path = i >= 2 && punct(i - 1, ':') && punct(i - 2, ':');
            if call || path {
                called.insert(&t.text);
            }
        }
    }
    for fm in models {
        for (i, w) in fm.toks.windows(3).enumerate() {
            if w[0].is_ident("pub")
                && w[1].is_ident("fn")
                && !fm.in_test(i)
                && !called.contains(w[2].text.as_str())
            {
                out.push(Finding {
                    rule: RULE_UNCALLED.to_string(),
                    file: fm.rel.clone(),
                    line: w[2].line,
                    message: format!(
                        "`pub fn {}` is called from no non-test code: delete it, move it \
                         into the tests that use it, or waive it naming the test that calls it",
                        w[2].text
                    ),
                    waived: false,
                    reason: String::new(),
                });
            }
        }
    }
}
