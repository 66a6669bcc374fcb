//! Per-file structural model built on top of the token stream:
//! brace matching, struct/field declarations, type aliases, functions
//! with their enclosing `impl` context, the items under `#[cfg(test)]`
//! or `#[test]`, and the waiver ledger parsed from line comments.

use crate::lexer::{lex, Comment, Tok, TokKind};
use std::path::PathBuf;

/// One field of a struct declaration.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub name: String,
    pub line: u32,
    /// The field's type, as a space-joined token string.
    pub ty: String,
}

/// A struct declaration with its fields.
#[derive(Debug, Clone)]
pub struct StructDecl {
    pub name: String,
    pub line: u32,
    pub fields: Vec<FieldDecl>,
}

/// A function (free or method) with its body token range.
#[derive(Debug, Clone)]
pub struct FnDecl {
    pub name: String,
    pub line: u32,
    /// Enclosing `impl` target type, if any.
    pub impl_ctx: Option<String>,
    /// Signature tokens (between the name and the body brace), joined.
    pub sig: String,
    /// Token index of the body `{`.
    pub body_open: usize,
    /// Token index of the matching `}`.
    pub body_close: usize,
}

/// One `// lint:allow(<rule>): <reason>` waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub line: u32,
    pub rule: String,
    pub reason: String,
}

/// Everything the rules need to know about one source file.
#[derive(Debug)]
pub struct FileModel {
    pub path: PathBuf,
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// For each token index of a `{`, the index of its matching `}`
    /// (`usize::MAX` if unbalanced).
    pub close_of: Vec<usize>,
    pub structs: Vec<StructDecl>,
    /// Names of local `type X = …` aliases whose right-hand side
    /// mentions `HashMap`/`HashSet`.
    pub hash_aliases: Vec<String>,
    pub functions: Vec<FnDecl>,
    /// Inclusive token ranges of the items (attributes included) that a
    /// `#[cfg(test)]` or `#[test]` attribute covers; a `#![cfg(test)]`
    /// inner attribute covers the whole file.
    pub test_ranges: Vec<(usize, usize)>,
    /// True for files under a `tests/` directory.
    pub is_test_file: bool,
    pub waivers: Vec<Waiver>,
}

impl FileModel {
    /// Build the model for one file's source text.
    pub fn build(path: PathBuf, rel: String, src: &str) -> FileModel {
        let lexed = lex(src);
        let toks = lexed.toks;
        let close_of = match_braces(&toks);
        let structs = scan_structs(&toks, &close_of);
        let hash_aliases = scan_hash_aliases(&toks);
        let functions = scan_functions(&toks, &close_of);
        let test_ranges = scan_test_ranges(&toks, &close_of);
        let is_test_file = rel.starts_with("tests/") || rel.contains("/tests/");
        let waivers = scan_waivers(&lexed.comments);
        FileModel {
            path,
            rel,
            toks,
            comments: lexed.comments,
            close_of,
            structs,
            hash_aliases,
            functions,
            test_ranges,
            is_test_file,
            waivers,
        }
    }

    /// True if the token at `idx` is inside test code: either the whole
    /// file is a test file, or the token sits in a test-only item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.is_test_file || self.test_ranges.iter().any(|&(a, b)| a <= idx && idx <= b)
    }
}

/// Compute, for every `{` token, the index of its matching `}`.
fn match_braces(toks: &[Tok]) -> Vec<usize> {
    let mut close_of = vec![usize::MAX; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                close_of[open] = i;
            }
        }
    }
    close_of
}

/// Skip a balanced `<…>` generics group starting at `i` (which must
/// point at `<`). Returns the index just past the matching `>`.
/// Tolerates `->` arrows inside (e.g. `Fn() -> T` bounds).
pub fn skip_generics(toks: &[Tok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            // `->` arrow: the `-` precedes; don't treat as closer.
            if i > 0 && toks[i - 1].is_punct('-') {
                i += 1;
                continue;
            }
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            // Bail out of malformed generics.
            return i;
        }
        i += 1;
    }
    i
}

/// Collect struct declarations and their named fields.
fn scan_structs(toks: &[Tok], close_of: &[usize]) -> Vec<StructDecl> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("struct") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let mut j = i + 2;
        if j < toks.len() && toks[j].is_punct('<') {
            j = skip_generics(toks, j);
        }
        // Skip `where` clauses up to `{`, `;` or `(`.
        while j < toks.len()
            && !toks[j].is_punct('{')
            && !toks[j].is_punct(';')
            && !toks[j].is_punct('(')
        {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            // Tuple or unit struct: no named fields.
            i = j.max(i + 1);
            continue;
        }
        let close = close_of[j];
        let mut fields = Vec::new();
        let mut k = j + 1;
        let mut depth = 0i32; // nesting relative to the struct body
        while k < toks.len() && k < close {
            let t = &toks[k];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0
                && t.kind == TokKind::Ident
                && k + 1 < close
                && toks[k + 1].is_punct(':')
                // Not a `::` path segment.
                && !(k + 2 < close && toks[k + 2].is_punct(':'))
                && !(k >= 1 && toks[k - 1].is_punct(':'))
            {
                // Field: capture type tokens until `,` at depth 0.
                let fname = t.text.clone();
                let fline = t.line;
                let mut m = k + 2;
                let mut tdepth = 0i32;
                let mut ty = String::new();
                while m < close {
                    let tt = &toks[m];
                    if tdepth == 0 && tt.is_punct(',') {
                        break;
                    }
                    if tt.is_punct('<') || tt.is_punct('(') || tt.is_punct('[') {
                        tdepth += 1;
                    } else if tt.is_punct('>') || tt.is_punct(')') || tt.is_punct(']') {
                        tdepth -= 1;
                    }
                    if !ty.is_empty() {
                        ty.push(' ');
                    }
                    ty.push_str(&tt.text);
                    m += 1;
                }
                fields.push(FieldDecl {
                    name: fname,
                    line: fline,
                    ty,
                });
                k = m;
                continue;
            }
            k += 1;
        }
        out.push(StructDecl { name, line, fields });
        i = if close == usize::MAX { j + 1 } else { close };
    }
    out
}

/// `type X = …HashMap…;` aliases: the alias name inherits hash-ness.
fn scan_hash_aliases(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].is_ident("type")
            && toks[i + 1].kind == TokKind::Ident
            && !(i >= 1 && toks[i - 1].is_punct('.'))
        {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            let mut is_hash = false;
            while j < toks.len() && !toks[j].is_punct(';') {
                if toks[j].is_ident("HashMap") || toks[j].is_ident("HashSet") {
                    is_hash = true;
                }
                j += 1;
            }
            if is_hash {
                out.push(name);
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Collect `fn` declarations with their enclosing `impl` target.
fn scan_functions(toks: &[Tok], close_of: &[usize]) -> Vec<FnDecl> {
    let mut out = Vec::new();
    // Stack of (impl-close-index, target-type-name).
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(close, _)) = impls.last() {
            if i > close {
                impls.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.is_ident("impl") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct('<') {
                j = skip_generics(toks, j);
            }
            // Path up to `for` / `{` / `where`; the target is the type
            // after `for` when present, else the first path.
            let mut first_path_head: Option<String> = None;
            let mut target: Option<String> = None;
            let mut after_for = false;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_ident("where") {
                let tt = &toks[j];
                if tt.is_ident("for") {
                    after_for = true;
                    target = None;
                    j += 1;
                    continue;
                }
                if tt.kind == TokKind::Ident {
                    if after_for {
                        if target.is_none() {
                            target = Some(tt.text.clone());
                        } else {
                            // later path segment wins: `a::b::C`
                            target = Some(tt.text.clone());
                        }
                    } else if first_path_head.is_none() {
                        first_path_head = Some(tt.text.clone());
                    } else if j >= 1 && toks[j - 1].is_punct(':') {
                        first_path_head = Some(tt.text.clone());
                    }
                }
                if tt.is_punct('<') {
                    j = skip_generics(toks, j);
                    continue;
                }
                j += 1;
            }
            // find `{`
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            if j < toks.len() {
                let ctx = target.or(first_path_head).unwrap_or_default();
                let close = close_of[j];
                if close != usize::MAX {
                    impls.push((close, ctx));
                }
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            // Scan to the body `{` or a `;` (trait method decl).
            let mut j = i + 2;
            let mut sig = String::new();
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                if !sig.is_empty() {
                    sig.push(' ');
                }
                sig.push_str(&toks[j].text);
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let close = close_of[j];
                if close != usize::MAX {
                    out.push(FnDecl {
                        name,
                        line,
                        impl_ctx: impls
                            .last()
                            .map(|(_, c)| c.clone())
                            .filter(|c| !c.is_empty()),
                        sig,
                        body_open: j,
                        body_close: close,
                    });
                    // Continue scanning *inside* the body too (nested fns
                    // are rare but legal); just step past the `{`.
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// The token ranges of test-only items: each `#[cfg(test)]` or
/// `#[test]` attribute covers the item after it (further attributes
/// included), up to the close of its first `{ … }` body or to its `;`.
/// An inner `#![cfg(test)]` covers the whole file.
fn scan_test_ranges(toks: &[Tok], close_of: &[usize]) -> Vec<(usize, usize)> {
    // Literal tokens keep their quotes, so only code matches.
    let texts = |at: usize, want: &[&str]| {
        want.iter()
            .enumerate()
            .all(|(k, w)| toks.get(at + k).is_some_and(|t| t.text == *w))
    };
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if texts(i, &["#", "!", "[", "cfg", "(", "test", ")", "]"]) {
            return vec![(0, toks.len())];
        }
        let attr_len = if texts(i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            7
        } else if texts(i, &["#", "[", "test", "]"]) {
            4
        } else {
            i += 1;
            continue;
        };
        // The item ends at its first `{ … }` body, or at a `;` outside
        // brackets (`mod tests;`, `use …;`).
        let mut j = i + attr_len;
        let mut depth = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') {
                j = close_of[j].min(toks.len() - 1);
                break;
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
            j += 1;
        }
        out.push((i, j));
        i = j + 1;
    }
    out
}

/// Parse `lint:allow(<rule>): <reason>` out of line comments.
fn scan_waivers(comments: &[Comment]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///…`, `//!…`) never carry waivers — they
        // describe the syntax, they don't use it.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let reason = after
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.push(Waiver {
            line: c.line,
            rule,
            reason,
        });
    }
    out
}
