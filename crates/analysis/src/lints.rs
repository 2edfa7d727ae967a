//! The repo-specific lint pass.
//!
//! Eight lints encode the invariants the compiler cannot check (see
//! DESIGN.md §4d for the full table and rationale):
//!
//! | id            | rule |
//! |---------------|------|
//! | `map-iter`    | no `HashMap`/`HashSet` in numeric crates (`tensor`, `nn`, `core`, `comm`) — nondeterministic iteration order can reach numerics |
//! | `unsafe`      | no `unsafe` outside the allow-list; allowed blocks must carry a `// SAFETY:` comment within 4 lines above |
//! | `wall-clock`  | no `Instant::now` / `SystemTime` outside the threaded backend and `bench` — the Simulated backend is virtual-clock pure |
//! | `raw-spawn`   | no `std::thread::spawn` / `Builder` / `scope` outside `comm`, the threaded backend, the analyzer's two thread hosts, and the one fork-join site, `tensor/src/parallel.rs` |
//! | `hot-alloc`   | no heap-allocating calls (`Vec::new`, `vec!`, `.to_vec()`, `.clone()`, …) inside functions annotated `// hot-path` |
//! | `float-cast`  | no `as` casts with syntactic float evidence in gradient-math crates (float→int truncation, `f64`→`f32` width collapse) |
//! | `comm-unwrap` | no `.unwrap()`/`.expect()` on `CommError`-carrying Results in `comm`/`core` library code — peer loss and timeouts are runtime conditions, not bugs — and no `assert!`/`assert_eq!`/`assert_ne!`/`panic!`/`unreachable!` in `comm` library code, where a peer's frame must become a typed error |
//! | `call-taint`  | no *indirect* nondeterminism in numeric crates: a cheap intra-crate call graph flags calls to helpers whose bodies (transitively) read wall clocks, thread identity, or hash-map iteration order |
//!
//! The first seven are per-file ([`lint_file`]); `call-taint` needs the
//! whole crate ([`scan_functions`] + [`call_taint`], driven by
//! [`crate::scan::lint_repo`]). Every lint is suppressible at the
//! offending line with `// lint:allow(<id>): <justification>` — on the
//! same line or as a full-line comment directly above (justification
//! required by convention, enforced by review).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, TokKind};

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Lint id (`map-iter`, `unsafe`, …).
    pub lint: &'static str,
    /// Repo-relative path (unix separators).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// All lint ids, in table order.
pub const LINT_IDS: &[&str] = &[
    "map-iter",
    "unsafe",
    "wall-clock",
    "raw-spawn",
    "hot-alloc",
    "float-cast",
    "comm-unwrap",
    "call-taint",
];

// ---------------------------------------------------------------------------
// Scopes and allow-lists (the repo's invariants, encoded).
// ---------------------------------------------------------------------------

/// Crates whose numerics must be bitwise reproducible (`map-iter`,
/// `float-cast` scope).
const NUMERIC_CRATES: &[&str] = &[
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/core/src/",
    "crates/comm/src/",
];

/// Files allowed to contain `unsafe` (each block still needs `// SAFETY:`).
const UNSAFE_ALLOWED_FILES: &[&str] = &[
    "crates/bench/src/alloc.rs",
    // The allocation guard's own counting allocator (a test binary cannot
    // borrow the bench crate's).
    "tests/zero_copy_step.rs",
];

/// Wall-clock reads are the threaded backend's business (plus everything
/// under `bench`, which measures real time by definition).
const WALL_CLOCK_ALLOWED: &[&str] = &[
    // The one threaded rank loop (shared by the in-process harness, the
    // multi-process launcher and the model checker) and the exchanges it
    // drives: the compute/comm stopwatches and the fault-tolerant
    // exchange's recovery latency are the threaded backend's
    // measurements. The simulated backend never calls either.
    "crates/core/src/engine/rank.rs",
    "crates/core/src/engine/exchange.rs",
    // Deadline-based failure detection is wall-clock by nature: recv
    // deadlines are real elapsed time, never part of the simulated clock.
    "crates/comm/src/world.rs",
    // The socket transport's rendezvous retries and recv deadlines, and
    // the mock transport's condvar waits, are the same sanction as
    // world.rs: real elapsed time on the wire path, never numerics.
    "crates/comm/src/socket.rs",
    "crates/comm/src/mock.rs",
    // The model transport's *live* mode implements the same real recv
    // deadlines as the mock for the conformance suite; controlled mode
    // owns all nondeterminism and never reads a clock.
    "crates/analysis/src/model.rs",
    // The transport-conformance suite measures those deadlines (bounded
    // Timeout, PeerGone retry windows) — wall-clock is the subject.
    "crates/comm/tests/",
    "crates/bench/",
    "examples/",
];

/// Raw thread creation: the comm substrate, the threaded backend, and the
/// analyzer's two rank-thread hosts — the model checker's scheduler and
/// the real-thread cross-check — plus the analyzer's own tests; and the one
/// fork-join site, whose threads share nothing but disjoint output blocks.
const SPAWN_ALLOWED: &[&str] = &[
    "crates/comm/",
    "crates/core/src/engine/threaded.rs",
    "crates/tensor/src/parallel.rs",
    "crates/analysis/src/model.rs",
    "crates/analysis/src/crosscheck.rs",
    "crates/analysis/tests/",
];

/// Gradient-math scope for `float-cast`.
const FLOAT_CAST_SCOPE: &[&str] = &["crates/tensor/src/", "crates/nn/src/", "crates/core/src/"];

/// Library scope of `comm-unwrap`: the crates whose Results carry
/// `CommError`. Tests and `bench` assert at will (`#[cfg(test)]` modules
/// inside these files are excluded too).
const COMM_UNWRAP_SCOPE: &[&str] = &["crates/comm/src/", "crates/core/src/"];

/// Library scope of `comm-unwrap`'s panic-macro half: the wire library
/// itself, where whatever a peer sent must end as a typed `CommError`.
const COMM_PANIC_SCOPE: &[&str] = &["crates/comm/src/"];

/// The macros that half flags (`debug_assert*` is exempt: it is compiled
/// out of the release build the wire runs in).
const PANIC_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne", "panic", "unreachable"];

/// Method / function names whose `Result` carries a `CommError` (directly
/// or via the transport trait): the receiver-chain evidence `comm-unwrap`
/// looks for.
const COMM_RESULT_FNS: &[&str] = &[
    "send",
    "recv",
    "recv_deadline",
    "recv_any",
    "recv_any_deadline",
    "broadcast",
    "allreduce_tree",
    "allreduce_over",
    "broadcast_over",
    "allreduce_ring",
    "sparse_allreduce_tree",
    // The sparse/8-bit frame decoders: a peer's buffer can be malformed.
    "decode",
    "dense8_decode",
    // The parameter server: the shard loop, and every fallible call of its
    // client.
    "serve_shard",
    "add",
    "push_gradient",
    "pull",
    "pull_retry",
    "pull_snapshot",
    "claim",
];

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| path.starts_with(p) || path == p.trim_end_matches('/'))
}

// ---------------------------------------------------------------------------
// Annotation maps derived from comments.
// ---------------------------------------------------------------------------

/// Lines covered by `lint:allow(...)` comments, per lint id.
struct AllowMap {
    /// `(line, lint_id)` pairs.
    allowed: BTreeSet<(u32, String)>,
}

impl AllowMap {
    fn build(toks: &[Tok]) -> Self {
        let mut allowed = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Comment {
                continue;
            }
            let Some(pos) = t.text.find("lint:allow(") else {
                continue;
            };
            let rest = &t.text[pos + "lint:allow(".len()..];
            let Some(end) = rest.find(')') else { continue };
            // The allow covers the comment's own line (trailing form) and
            // the line of the next non-comment token (block-above form).
            let mut lines = vec![t.line];
            if let Some(next) = toks[i + 1..].iter().find(|n| n.kind != TokKind::Comment) {
                lines.push(next.line);
            }
            for id in rest[..end].split(',') {
                for &l in &lines {
                    allowed.insert((l, id.trim().to_string()));
                }
            }
        }
        AllowMap { allowed }
    }

    fn is_allowed(&self, line: u32, lint: &str) -> bool {
        self.allowed.contains(&(line, lint.to_string()))
    }
}

/// Lines of comments containing `SAFETY:`.
fn safety_lines(toks: &[Tok]) -> Vec<u32> {
    toks.iter()
        .filter(|t| t.kind == TokKind::Comment && t.text.contains("SAFETY:"))
        .map(|t| t.line)
        .collect()
}

/// Is there a `SAFETY:` comment on `line` or within the 4 lines above?
fn has_safety_comment(safety: &[u32], line: u32) -> bool {
    safety.iter().any(|&s| s <= line && line - s <= 4)
}

// ---------------------------------------------------------------------------
// The lint pass proper.
// ---------------------------------------------------------------------------

/// Lint one file. `path` is the repo-relative path (used for scoping);
/// `src` is the file contents.
pub fn lint_file(path: &str, src: &str) -> Vec<Violation> {
    let toks = lex(src);
    let allow = AllowMap::build(&toks);
    let safety = safety_lines(&toks);
    let mut out = Vec::new();

    let push = |lint: &'static str, line: u32, message: String, out: &mut Vec<Violation>| {
        if !allow.is_allowed(line, lint) {
            out.push(Violation {
                lint,
                file: path.to_string(),
                line,
                message,
            });
        }
    };

    // L1 map-iter: HashMap/HashSet anywhere in numeric crates.
    if in_scope(path, NUMERIC_CRATES) {
        for t in &toks {
            if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                push(
                    "map-iter",
                    t.line,
                    format!(
                        "{} in a numeric crate: iteration order is nondeterministic and can \
                         reach numerics; use BTreeMap/BTreeSet or an index-keyed Vec",
                        t.text
                    ),
                    &mut out,
                );
            }
        }
    }

    // L2 unsafe: outside the allow-list, or allowed but undocumented.
    for t in &toks {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            if !in_scope(path, UNSAFE_ALLOWED_FILES) {
                push(
                    "unsafe",
                    t.line,
                    "unsafe outside the allow-list (the two counting allocators)".to_string(),
                    &mut out,
                );
            } else if !has_safety_comment(&safety, t.line) {
                push(
                    "unsafe",
                    t.line,
                    "allowed unsafe without a `// SAFETY:` comment within 4 lines above"
                        .to_string(),
                    &mut out,
                );
            }
        }
    }

    // L3 wall-clock: Instant::now / SystemTime outside the threaded backend.
    if !in_scope(path, WALL_CLOCK_ALLOWED) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let hit = match t.text.as_str() {
                "SystemTime" => true,
                "Instant" => matches!(
                    (toks.get(i + 1), toks.get(i + 2)),
                    (Some(a), Some(b)) if a.is("::") && b.is("now")
                ),
                _ => false,
            };
            if hit {
                push(
                    "wall-clock",
                    t.line,
                    format!(
                        "{} outside the threaded rank loop/bench breaks the Simulated backend's \
                         virtual-clock purity",
                        t.text
                    ),
                    &mut out,
                );
            }
        }
    }

    // L4 raw-spawn: thread::{spawn, Builder, scope} outside comm, the
    // threaded backend and the fork-join helpers.
    if !in_scope(path, SPAWN_ALLOWED) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text == "thread"
                && matches!(
                    (toks.get(i + 1), toks.get(i + 2)),
                    (Some(a), Some(b))
                        if a.is("::") && (b.is("spawn") || b.is("Builder") || b.is("scope"))
                )
            {
                push(
                    "raw-spawn",
                    t.line,
                    "thread creation outside comm/the threaded harness/tensor::parallel: \
                     message-passing concurrency goes over a Transport, the only kind the model \
                     checker explores; fork-join over disjoint outputs goes through parallel.rs"
                        .to_string(),
                    &mut out,
                );
            }
        }
    }

    // L5 hot-alloc: allocation calls inside `// hot-path` functions.
    for (lo, hi) in hot_path_bodies(&toks) {
        let body = &toks[lo..hi];
        for (j, t) in body.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev = j.checked_sub(1).map(|k| &body[k]);
            let next = body.get(j + 1);
            let path_head = matches!(prev, Some(p) if p.is("::"));
            let method = matches!(prev, Some(p) if p.is("."));
            let hit = match t.text.as_str() {
                "new" | "with_capacity" => {
                    path_head
                        && matches!(
                            lo.checked_add(j).and_then(|k| k.checked_sub(2)).and_then(|k| toks.get(k)),
                            Some(h) if h.is("Vec") || h.is("Box") || h.is("String") || h.is("VecDeque")
                        )
                }
                "vec" | "format" => matches!(next, Some(nx) if nx.is("!")),
                "to_vec" | "clone" | "to_owned" | "collect" => method,
                _ => false,
            };
            if hit {
                push(
                    "hot-alloc",
                    t.line,
                    format!(
                        "heap allocation (`{}`) inside a `// hot-path` function: draw buffers \
                         from the Workspace arena instead",
                        t.text
                    ),
                    &mut out,
                );
            }
        }
    }

    // L6 float-cast: `as` casts with syntactic float evidence.
    if in_scope(path, FLOAT_CAST_SCOPE) {
        for v in float_cast_findings(&toks) {
            push("float-cast", v.0, v.1, &mut out);
        }
    }

    // L7 comm-unwrap: `.unwrap()`/`.expect()` on comm-layer Results in
    // library code. Evidence based, like float-cast: flagged only when the
    // receiver's postfix chain syntactically contains a comm call.
    if in_scope(path, COMM_UNWRAP_SCOPE) {
        let test_ranges = cfg_test_line_ranges(&toks);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || (t.text != "unwrap" && t.text != "expect") {
                continue;
            }
            if !matches!(i.checked_sub(1).map(|k| &toks[k]), Some(p) if p.is(".")) {
                continue;
            }
            if !matches!(toks.get(i + 1), Some(n) if n.is("(")) {
                continue;
            }
            if test_ranges
                .iter()
                .any(|&(lo, hi)| t.line >= lo && t.line <= hi)
            {
                continue;
            }
            let chain = receiver_chain_names(&toks, i - 1);
            let comm_hit = chain.iter().find(|(n, argc)| {
                COMM_RESULT_FNS.contains(&n.as_str())
                    && match n.as_str() {
                        // `send`/`recv` collide with std channel names;
                        // require the Transport arity — send(dst, tag,
                        // payload), recv(src, tag) — so in-process mpsc
                        // endpoints (1 and 0 args) stay out of scope.
                        "send" => *argc >= 3,
                        "recv" => *argc >= 2,
                        _ => true,
                    }
            });
            if let Some((hit, _)) = comm_hit {
                push(
                    "comm-unwrap",
                    t.line,
                    format!(
                        "`.{}()` on the `CommError`-carrying result of `{hit}`: peer loss and \
                         timeouts are runtime conditions — propagate with `?` or match on them",
                        t.text
                    ),
                    &mut out,
                );
            }
        }
        if in_scope(path, COMM_PANIC_SCOPE) {
            for (i, t) in toks.iter().enumerate() {
                let is_macro = matches!(toks.get(i + 1), Some(n) if n.is("!"));
                if t.kind != TokKind::Ident || !is_macro || !PANIC_MACROS.contains(&t.text.as_str())
                {
                    continue;
                }
                if test_ranges
                    .iter()
                    .any(|&(lo, hi)| t.line >= lo && t.line <= hi)
                {
                    continue;
                }
                push(
                    "comm-unwrap",
                    t.line,
                    format!(
                        "`{}!` in the comm library: what a peer sent must end as a typed \
                         `CommError`, never a panic — a caller bug says why with \
                         `lint:allow(comm-unwrap)`",
                        t.text
                    ),
                    &mut out,
                );
            }
        }
    }

    out
}

/// Line ranges (inclusive) covered by `#[cfg(test)]`-gated blocks — test
/// modules may unwrap comm Results at will.
fn cfg_test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_cfg_test = toks[i].is("#")
            && matches!(toks.get(i + 1), Some(a) if a.is("["))
            && matches!(toks.get(i + 2), Some(a) if a.is("cfg"))
            && matches!(toks.get(i + 3), Some(a) if a.is("("))
            && matches!(toks.get(i + 4), Some(a) if a.is("test"));
        if is_cfg_test {
            // Scan to the block the attribute covers (a `;` means an
            // out-of-line `mod tests;` — no range in this file).
            let mut j = i + 5;
            while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                j += 1;
            }
            if j < toks.len() && toks[j].is("{") {
                let lo = toks[i].line;
                let mut depth = 1i32;
                let mut m = j + 1;
                while m < toks.len() && depth > 0 {
                    if toks[m].is("{") {
                        depth += 1;
                    } else if toks[m].is("}") {
                        depth -= 1;
                    }
                    m += 1;
                }
                let hi = toks.get(m.saturating_sub(1)).map_or(lo, |t| t.line);
                out.push((lo, hi));
                i = m;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Calls in the postfix receiver chain left of the `.` at `dot`, as
/// `(name, top-level arg count)` pairs: `t.recv(src, tag).unwrap()` yields
/// `[("recv", 2)]`, `client.pull(deadline)?.expect(..)` yields
/// `[("pull", 1)]`. Field accesses and the receiver variable
/// contribute no names (they are not calls). The arg count is syntactic —
/// top-level commas plus one — which is exactly enough to tell a Transport
/// `send(dst, tag, data)` from an mpsc `send(value)`.
fn receiver_chain_names(toks: &[Tok], dot: usize) -> Vec<(String, usize)> {
    let mut names = Vec::new();
    let mut k = dot;
    loop {
        if k == 0 {
            break;
        }
        let t = &toks[k - 1];
        if t.is("?") {
            k -= 1;
        } else if t.is(")") {
            // Match the arg-list group back to its `(`, counting the
            // group's top-level commas on the way.
            let mut depth = 1i32;
            let mut commas = 0usize;
            let mut inner = 0usize;
            k -= 1;
            while k > 0 && depth > 0 {
                k -= 1;
                if toks[k].is(")") {
                    depth += 1;
                } else if toks[k].is("(") {
                    depth -= 1;
                } else {
                    if depth == 1 && toks[k].is(",") {
                        commas += 1;
                    }
                    inner += 1;
                }
            }
            let argc = if inner == 0 { 0 } else { commas + 1 };
            // The call's name sits before the arg list.
            if k > 0 && toks[k - 1].kind == TokKind::Ident {
                names.push((toks[k - 1].text.clone(), argc));
                k -= 1;
                if k > 0 && (toks[k - 1].is(".") || toks[k - 1].is("::")) {
                    k -= 1;
                    continue;
                }
            }
            break;
        } else if t.kind == TokKind::Ident {
            // Field or variable link: keep walking through `.`/`::`.
            k -= 1;
            if k > 0 && (toks[k - 1].is(".") || toks[k - 1].is("::")) {
                k -= 1;
                continue;
            }
            break;
        } else {
            break;
        }
    }
    names
}

/// Is this comment the hot-path *annotation* (as opposed to prose that
/// merely mentions it)? The marker must be the first word of the comment:
/// `// hot-path` or `// hot-path: <note>`. Requiring the leading position
/// keeps doc comments that talk *about* the marker from annotating the
/// next function.
fn is_hot_path_marker(comment: &str) -> bool {
    comment
        .trim_start_matches(['/', '*', '!', ' '])
        .starts_with("hot-path")
}

/// Token index ranges (open brace .. close brace, exclusive) of the bodies
/// of functions annotated with a `// hot-path` comment.
fn hot_path_bodies(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Comment && is_hot_path_marker(&t.text) {
            // Find the `fn` this annotation covers (skipping attributes,
            // visibility, and further comments). Give up after a window.
            let mut j = i + 1;
            let mut fn_at = None;
            let mut budget = 40usize;
            while j < toks.len() && budget > 0 {
                if toks[j].is("fn") {
                    fn_at = Some(j);
                    break;
                }
                if toks[j].is("{") || toks[j].is("}") {
                    break; // wandered into other structure
                }
                j += 1;
                budget -= 1;
            }
            if let Some(f) = fn_at {
                // Scan to the body's opening brace (a `;` means no body).
                let mut k = f + 1;
                let mut angle = 0i32;
                while k < toks.len() {
                    let tk = &toks[k];
                    if tk.is("<") {
                        angle += 1;
                    } else if tk.is(">") {
                        angle -= 1;
                    } else if tk.is(";") && angle <= 0 {
                        break;
                    } else if tk.is("{") && angle <= 0 {
                        // Brace-match to the end of the body.
                        let mut depth = 1i32;
                        let open = k + 1;
                        let mut m = open;
                        while m < toks.len() && depth > 0 {
                            if toks[m].is("{") {
                                depth += 1;
                            } else if toks[m].is("}") {
                                depth -= 1;
                            }
                            m += 1;
                        }
                        out.push((open, m.saturating_sub(1)));
                        i = m;
                        break;
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    out
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];
const FLOAT_METHODS: &[&str] = &[
    "floor", "ceil", "round", "trunc", "sqrt", "exp", "ln", "powf", "powi", "log2", "exp2",
    "recip", "ln_1p", "exp_m1",
];

/// Findings for the `float-cast` lint: `(line, message)` pairs.
///
/// Type inference is out of reach for a lexer, so the lint is evidence
/// based: a cast is flagged only when its source expression *syntactically*
/// shows float involvement — a float literal, a nested `as f32`/`as f64`,
/// or a float-only method call (`floor`, `sqrt`, …). Casts whose float-ness
/// hides behind a plain identifier are documented as out of scope
/// (DESIGN.md §4d); int→float index promotions are deliberately not
/// flagged.
fn float_cast_findings(toks: &[Tok]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        let to_int = INT_TYPES.contains(&target.text.as_str());
        let to_float = target.text == "f32" || target.text == "f64";
        if !to_int && !to_float {
            continue;
        }
        // Evidence window: the full postfix chain of the source expression
        // (`(a as f64 * r).ceil()` walks back through `()` groups and
        // `.method` links), or up to 3 tokens back for a bare expression.
        let lo = if i > 0 && toks[i - 1].is(")") {
            let mut k = i;
            loop {
                if k > 0 && toks[k - 1].is(")") {
                    // Match this paren group.
                    let mut depth = 1i32;
                    k -= 1;
                    while k > 0 && depth > 0 {
                        k -= 1;
                        if toks[k].is(")") {
                            depth += 1;
                        } else if toks[k].is("(") {
                            depth -= 1;
                        }
                    }
                    // A method's arg list: step through `.method` to the
                    // receiver and keep walking the chain.
                    if k >= 2 && toks[k - 1].kind == TokKind::Ident && toks[k - 2].is(".") {
                        k -= 2;
                        continue;
                    }
                    break;
                }
                break;
            }
            k
        } else {
            i.saturating_sub(3)
        };
        let span = &toks[lo..i];
        let has_float_literal = span.iter().any(|s| s.is_float_literal());
        let has_width_cast = span.windows(2).any(|w| {
            w[0].kind == TokKind::Ident && w[0].text == "as" && (w[1].is("f32") || w[1].is("f64"))
        });
        let has_float_method = span.windows(2).any(|w| {
            w[0].is(".")
                && w[1].kind == TokKind::Ident
                && FLOAT_METHODS.contains(&w[1].text.as_str())
        });
        let flagged = if to_int {
            has_float_literal || has_width_cast || has_float_method
        } else {
            // int→float promotion is fine; flag only float-width collapse
            // (`(… as f64 …) as f32`) or a float-method source recast.
            has_width_cast || has_float_method
        };
        if flagged {
            out.push((
                t.line,
                format!(
                    "`as {}` cast with float evidence in gradient math: use explicit \
                     round/clamp helpers or `to_bits`/`from_bits` for bit moves",
                    target.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L8 call-taint: intra-crate call-graph nondeterminism propagation.
// ---------------------------------------------------------------------------

/// One function as seen by the `call-taint` scanner.
struct FnInfo {
    /// Bare function name (`fn name(...)`).
    name: String,
    /// Direct nondeterminism source in the body, if any: `(line, kind)`.
    source: Option<(u32, String)>,
    /// Call sites in the body: `(line, bare callee name)`. Method calls
    /// (`x.f()`) are excluded — receivers are unresolvable for a lexer.
    calls: Vec<(u32, String)>,
}

/// Per-file input to [`call_taint`]: the functions of one source file,
/// plus the lines where the lint is suppressed.
pub struct FileFns {
    path: String,
    fns: Vec<FnInfo>,
    /// Lines carrying `lint:allow(call-taint)`.
    allowed: BTreeSet<u32>,
}

/// Names never resolved as intra-crate calls: ubiquitous constructor /
/// std-path tails whose bare name would mis-resolve (`Vec::new` vs. a
/// crate's own unique `fn new`).
const TAINT_RESOLVE_DENY: &[&str] = &[
    "new", "default", "from", "into", "clone", "now", "current", "len", "min", "max",
];

/// Keyword-shaped `ident (` sequences that are not calls.
const TAINT_CALL_KEYWORDS: &[&str] = &["match", "return", "if", "while", "for", "in", "move"];

/// Extract the function list of one file for the `call-taint` pass.
///
/// The scanner is deliberately shallow: `fn name … { body }` with
/// angle-bracket-aware scanning to the body brace (trait signatures with
/// `;` bodies contribute nothing). Closures and nested items are
/// attributed to the enclosing function — good enough for propagation.
pub fn scan_functions(path: &str, src: &str) -> FileFns {
    let toks = lex(src);
    let allow = AllowMap::build(&toks);
    let allowed: BTreeSet<u32> = toks
        .iter()
        .map(|t| t.line)
        .filter(|&l| allow.is_allowed(l, "call-taint"))
        .collect();
    let wall_clock_sanctioned = in_scope(path, WALL_CLOCK_ALLOWED);
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is("fn") && matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Ident)) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        // Scan to the body's opening brace; `;` before it means no body.
        let mut k = i + 2;
        let mut angle = 0i32;
        let mut body: Option<(usize, usize)> = None;
        while k < toks.len() {
            let tk = &toks[k];
            if tk.is("<") {
                angle += 1;
            } else if tk.is(">") {
                angle -= 1;
            } else if tk.is(";") && angle <= 0 {
                break;
            } else if tk.is("{") && angle <= 0 {
                let open = k + 1;
                let mut depth = 1i32;
                let mut m = open;
                while m < toks.len() && depth > 0 {
                    if toks[m].is("{") {
                        depth += 1;
                    } else if toks[m].is("}") {
                        depth -= 1;
                    }
                    m += 1;
                }
                body = Some((open, m.saturating_sub(1)));
                break;
            }
            k += 1;
        }
        let Some((lo, hi)) = body else {
            i += 2;
            continue;
        };
        let mut info = FnInfo {
            name,
            source: None,
            calls: Vec::new(),
        };
        for j in lo..hi {
            let t = &toks[j];
            if t.kind != TokKind::Ident {
                continue;
            }
            let sanctioned =
                |id: &str| allow.is_allowed(t.line, id) || allow.is_allowed(t.line, "call-taint");
            // Direct sources, honoring the same sanctions as the direct lints.
            let src_kind = match t.text.as_str() {
                "SystemTime" if !wall_clock_sanctioned && !sanctioned("wall-clock") => {
                    Some("wall-clock read (`SystemTime`)")
                }
                "Instant"
                    if matches!(
                        (toks.get(j + 1), toks.get(j + 2)),
                        (Some(a), Some(b)) if a.is("::") && b.is("now")
                    ) && !wall_clock_sanctioned
                        && !sanctioned("wall-clock") =>
                {
                    Some("wall-clock read (`Instant::now`)")
                }
                "thread"
                    if matches!(
                        (toks.get(j + 1), toks.get(j + 2)),
                        (Some(a), Some(b)) if a.is("::") && b.is("current")
                    ) && !sanctioned("call-taint") =>
                {
                    Some("thread identity (`thread::current`)")
                }
                "HashMap" | "HashSet" if !sanctioned("map-iter") => {
                    Some("hash iteration order (`HashMap`/`HashSet`)")
                }
                _ => None,
            };
            if let Some(kind) = src_kind {
                if info.source.is_none() {
                    info.source = Some((t.line, kind.to_string()));
                }
                continue;
            }
            // Call sites: `ident (` not preceded by `.` (method) or `fn`.
            if !matches!(toks.get(j + 1), Some(n) if n.is("(")) {
                continue;
            }
            if TAINT_CALL_KEYWORDS.contains(&t.text.as_str()) {
                continue;
            }
            if matches!(j.checked_sub(1).map(|k| &toks[k]), Some(p) if p.is(".") || p.is("fn")) {
                continue;
            }
            info.calls.push((t.line, t.text.clone()));
        }
        fns.push(info);
        i = hi + 1;
    }
    FileFns {
        path: path.to_string(),
        fns,
        allowed,
    }
}

/// The crate-level `call-taint` pass: propagate nondeterminism along the
/// intra-crate call graph and flag call sites in numeric-crate files whose
/// callee (transitively) reaches a source.
///
/// Resolution is by unique bare name: a callee name defined more than once
/// in the crate is ambiguous and conservatively skipped (transport trait
/// impls all define `send`/`recv` — tainting through those would be
/// guesswork). Sources sanctioned by the direct lints' allow-lists
/// (`WALL_CLOCK_ALLOWED`, `lint:allow(map-iter)`, …) do not taint.
pub fn call_taint(files: &[FileFns]) -> Vec<Violation> {
    // Unique-name resolution table: name -> (file idx, fn idx).
    let mut defs: BTreeMap<&str, Option<(usize, usize)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            if TAINT_RESOLVE_DENY.contains(&g.name.as_str()) {
                continue;
            }
            defs.entry(&g.name)
                .and_modify(|e| *e = None) // duplicate: ambiguous
                .or_insert(Some((fi, gi)));
        }
    }
    let resolve = |name: &str| defs.get(name).copied().flatten();

    // Per-fn taint: the human-readable root-source description.
    let mut taint: Vec<Vec<Option<String>>> = files
        .iter()
        .map(|f| {
            f.fns
                .iter()
                .map(|g| {
                    g.source
                        .as_ref()
                        .map(|(line, kind)| format!("{kind} in `{}` at {}:{line}", g.name, f.path))
                })
                .collect()
        })
        .collect();

    // Fixpoint propagation (bounded by the call-graph depth).
    let mut changed = true;
    while changed {
        changed = false;
        for (fi, f) in files.iter().enumerate() {
            for (gi, g) in f.fns.iter().enumerate() {
                if taint[fi][gi].is_some() {
                    continue;
                }
                for (_, callee) in &g.calls {
                    if let Some((tf, tg)) = resolve(callee) {
                        if let Some(root) = taint[tf][tg].clone() {
                            taint[fi][gi] = Some(root);
                            changed = true;
                            break;
                        }
                    }
                }
            }
        }
    }

    // Findings: tainted call sites in numeric-crate files.
    let mut out = Vec::new();
    for f in files {
        if !in_scope(&f.path, NUMERIC_CRATES) {
            continue;
        }
        for g in &f.fns {
            for (line, callee) in &g.calls {
                if f.allowed.contains(line) {
                    continue;
                }
                let Some((tf, tg)) = resolve(callee) else {
                    continue;
                };
                if let Some(root) = &taint[tf][tg] {
                    out.push(Violation {
                        lint: "call-taint",
                        file: f.path.clone(),
                        line: *line,
                        message: format!(
                            "call to `{callee}` reaches a nondeterminism source — {root}; \
                             numerics must not depend on clocks, thread identity, or hash order"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Run `call-taint` on a single file as a degenerate one-file crate —
/// what the fixture corpus and unit tests use.
pub fn call_taint_single(path: &str, src: &str) -> Vec<Violation> {
    call_taint(&[scan_functions(path, src)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(path: &str, src: &str) -> Vec<&'static str> {
        lint_file(path, src).into_iter().map(|v| v.lint).collect()
    }

    #[test]
    fn map_iter_fires_in_numeric_crates_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lints_of("crates/core/src/x.rs", src), vec!["map-iter"]);
        assert!(lints_of("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn map_iter_respects_allow() {
        let src = "// lint:allow(map-iter): build-time only, never iterated\n\
                   use std::collections::HashMap;\n";
        assert!(lints_of("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        assert_eq!(lints_of("crates/core/src/x.rs", src), vec!["unsafe"]);
    }

    #[test]
    fn unsafe_allowed_file_requires_safety_comment() {
        let bare = "unsafe fn g() {}\n";
        assert_eq!(lints_of("crates/bench/src/alloc.rs", bare), vec!["unsafe"]);
        let documented =
            "// SAFETY: forwards the caller's layout to `System` unchanged.\nunsafe fn g() {}\n";
        assert!(lints_of("crates/bench/src/alloc.rs", documented).is_empty());
    }

    #[test]
    fn unsafe_allowlist_scopes_to_the_file_not_its_siblings() {
        // The sanction is per file: the documented block that passes in
        // `bench/src/alloc.rs` (above) is flagged in its siblings, in
        // `bench` or anywhere else.
        let documented =
            "// SAFETY: forwards the caller's layout to `System` unchanged.\nunsafe fn g() {}\n";
        for sibling in ["crates/bench/src/hotpath.rs", "crates/comm/src/sparse.rs"] {
            assert_eq!(lints_of(sibling, documented), vec!["unsafe"], "{sibling}");
        }
    }

    #[test]
    fn wall_clock_scoping() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(
            lints_of("crates/core/src/engine/simulated.rs", src),
            vec!["wall-clock"]
        );
        assert!(lints_of("crates/bench/src/kernels.rs", src).is_empty());
        // The transport impls, the one rank loop and its exchanges carry
        // recv deadlines / comm stopwatches — sanctioned alongside
        // world.rs. The harness that spawns the loop reads no clock.
        assert!(lints_of("crates/core/src/engine/rank.rs", src).is_empty());
        assert!(lints_of("crates/core/src/engine/exchange.rs", src).is_empty());
        assert_eq!(
            lints_of("crates/core/src/engine/threaded.rs", src),
            vec!["wall-clock"]
        );
        assert!(lints_of("crates/comm/src/socket.rs", src).is_empty());
        assert!(lints_of("crates/comm/src/mock.rs", src).is_empty());
        // The model transport's live mode mirrors the mock's real recv
        // deadlines — sanctioned; its controlled mode never reads a clock.
        assert!(lints_of("crates/analysis/src/model.rs", src).is_empty());
        assert!(lints_of("crates/comm/tests/transport_conformance.rs", src).is_empty());
    }

    #[test]
    fn raw_spawn_scoping() {
        let src = "std::thread::spawn(|| {});\n";
        assert_eq!(lints_of("crates/nn/src/model.rs", src), vec!["raw-spawn"]);
        assert!(lints_of("crates/comm/src/ps_transport.rs", src).is_empty());
        // The analyzer's thread hosts are named file by file.
        assert!(lints_of("crates/analysis/src/model.rs", src).is_empty());
        assert!(lints_of("crates/analysis/src/crosscheck.rs", src).is_empty());
        assert_eq!(
            lints_of("crates/analysis/src/corpus.rs", src),
            vec!["raw-spawn"]
        );
        // One thread host in core: the harness, not the loop it spawns.
        assert!(lints_of("crates/core/src/engine/threaded.rs", src).is_empty());
        assert_eq!(
            lints_of("crates/core/src/engine/rank.rs", src),
            vec!["raw-spawn"]
        );
        // Scoped threads are threads: one fork-join site, named by file.
        let scoped = "std::thread::scope(|s| { s.spawn(|| {}); });\n";
        assert_eq!(
            lints_of("crates/nn/src/model.rs", scoped),
            vec!["raw-spawn"]
        );
        assert_eq!(
            lints_of("crates/tensor/src/conv.rs", scoped),
            vec!["raw-spawn"]
        );
        assert!(lints_of("crates/tensor/src/parallel.rs", scoped).is_empty());
        assert!(lints_of("crates/core/src/engine/threaded.rs", scoped).is_empty());
    }

    #[test]
    fn hot_alloc_fires_only_in_annotated_fns() {
        let cold = "pub fn f() { let v = vec![0.0; 8]; }\n";
        assert!(lints_of("crates/tensor/src/conv.rs", cold).is_empty());
        let hot = "// hot-path\npub fn f() { let v = vec![0.0; 8]; }\n";
        assert_eq!(
            lints_of("crates/tensor/src/conv.rs", hot),
            vec!["hot-alloc"]
        );
        let hot_clone =
            "// hot-path\npub fn f(x: &[f32]) { let v = x.to_vec(); let w = v.clone(); }\n";
        assert_eq!(
            lints_of("crates/tensor/src/conv.rs", hot_clone),
            vec!["hot-alloc", "hot-alloc"]
        );
    }

    #[test]
    fn hot_alloc_allows_workspace_draws() {
        let src = "// hot-path\npub fn f(ws: &mut Workspace) { let v = ws.take_f32(8); }\n";
        assert!(lints_of("crates/tensor/src/conv.rs", src).is_empty());
    }

    #[test]
    fn hot_alloc_trailing_allow() {
        let src = "// hot-path\npub fn f(d: &[usize]) {\n\
                   let dims = d.to_vec(); // lint:allow(hot-alloc): O(ndims) shape metadata\n}\n";
        assert!(lints_of("crates/tensor/src/conv.rs", src).is_empty());
    }

    #[test]
    fn float_cast_truncation_flagged() {
        let src = "fn f(x: f32) -> usize { (x * 0.5) as usize }\n";
        assert_eq!(lints_of("crates/nn/src/loss.rs", src), vec!["float-cast"]);
        let ceil = "fn k(m: usize, r: f64) -> usize { ((m as f64 * r).ceil()) as usize }\n";
        assert_eq!(
            lints_of("crates/core/src/compress.rs", ceil),
            vec!["float-cast"]
        );
    }

    #[test]
    fn float_cast_sees_through_postfix_chains() {
        // No outer parens: the evidence sits behind `.ceil()` and must be
        // reached by walking the postfix chain.
        let src = "fn k(m: usize, r: f64) -> usize { (m as f64 * r).ceil() as usize }\n";
        assert_eq!(
            lints_of("crates/core/src/compress.rs", src),
            vec!["float-cast"]
        );
        let sqrt = "fn f(x: f32) -> i32 { x.abs().sqrt() as i32 }\n";
        assert_eq!(
            lints_of("crates/core/src/compress.rs", sqrt),
            vec!["float-cast"]
        );
    }

    #[test]
    fn hot_path_marker_must_lead_the_comment() {
        // Prose that merely *mentions* the marker must not annotate the fn.
        let src = "/// Finds functions annotated with a `// hot-path` comment.\n\
                   fn scan() { let v = Vec::new(); }\n";
        assert!(lints_of("crates/tensor/src/conv.rs", src).is_empty());
        let real = "// hot-path: inner GEMM loop\nfn f() { let v = Vec::new(); }\n";
        assert_eq!(
            lints_of("crates/tensor/src/conv.rs", real),
            vec!["hot-alloc"]
        );
    }

    #[test]
    fn float_cast_width_collapse_flagged() {
        let src = "fn f(a: f64, n: usize) -> f32 { (a / n as f64) as f32 }\n";
        assert_eq!(lints_of("crates/nn/src/loss.rs", src), vec!["float-cast"]);
    }

    #[test]
    fn float_cast_ignores_int_promotions() {
        let src = "fn f(k: usize) -> f32 { 1.0 / (k * k) as f32 }\n\
                   fn g(rows: usize, c: usize) -> u64 { (rows * c) as u64 }\n";
        assert!(lints_of("crates/nn/src/layers/pool_avg.rs", src).is_empty());
    }

    #[test]
    fn outside_scanned_scope_is_silent() {
        let src = "use std::collections::HashMap;\nstd::thread::spawn(|| {});\n";
        assert!(lints_of("crates/bench/src/figures.rs", src)
            .iter()
            .all(|l| *l != "map-iter"));
    }

    #[test]
    fn comm_unwrap_flags_unwrap_and_expect_on_comm_results() {
        let src = "fn f(t: &MockTransport) { let v = t.recv(1, 7).unwrap(); }\n";
        assert_eq!(
            lints_of("crates/comm/src/tree.rs", src),
            vec!["comm-unwrap"]
        );
        let expect = "fn f(w: &World) { w.send(0, TAG, buf).expect(\"send\"); }\n";
        assert_eq!(
            lints_of("crates/core/src/engine/rank.rs", expect),
            vec!["comm-unwrap"]
        );
    }

    #[test]
    fn comm_unwrap_walks_the_postfix_chain() {
        // The comm call sits behind a `?`-link and a field access.
        let src = "fn f(s: &S) { let v = s.world.recv_any(&c).unwrap(); }\n";
        assert_eq!(
            lints_of("crates/comm/src/ps_transport.rs", src),
            vec!["comm-unwrap"]
        );
    }

    #[test]
    fn comm_unwrap_covers_the_ps_client_the_compressed_trees_and_the_frame_decoders() {
        for call in [
            "l.client.add(&delta)",
            "l.client.push_gradient(gamma, &gs)",
            "l.client.pull(deadline)",
            "l.client.pull_retry(deadline, 3, backoff)",
            "l.client.pull_snapshot(deadline, 8)",
            "l.client.claim(deadline)",
            "sparse_allreduce_tree(comm, &mut sv, opts, &mut profile)",
            "allreduce_over(comm, &mut membership, &mut fold, deadline)",
            "broadcast_over(comm, &membership, 0, &mut fold)",
            "SparseVec::decode(&buf)",
            "SparseVec8::decode(&buf)",
            "dense8_decode(&buf, m)",
        ] {
            let src = format!("fn f(l: &mut Link) {{ let x = {call}.unwrap(); }}\n");
            assert_eq!(
                lints_of("crates/core/src/engine/exchange.rs", &src),
                vec!["comm-unwrap"],
                "{call}"
            );
        }
    }

    #[test]
    fn comm_unwrap_ignores_non_comm_receivers_tests_and_other_crates() {
        // Non-comm receiver chains are fine.
        let lock = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); }\n";
        assert!(lints_of("crates/comm/src/world.rs", lock).is_empty());
        // `#[cfg(test)]` modules assert at will.
        let test_mod = "#[cfg(test)]\nmod tests {\n    fn f(t: &T) { t.recv(0, 1).unwrap(); }\n}\n";
        assert!(lints_of("crates/comm/src/tree.rs", test_mod).is_empty());
        // Out of scope entirely.
        let src = "fn f(t: &T) { t.recv(0, 1).unwrap(); }\n";
        assert!(lints_of("crates/bench/src/engine.rs", src).is_empty());
        // Allowed with justification.
        let allowed = "fn f(t: &T) {\n    t.recv(0, 1).unwrap(); \
                       // lint:allow(comm-unwrap): self-message, cannot fail\n}\n";
        assert!(lints_of("crates/comm/src/tree.rs", allowed).is_empty());
    }

    #[test]
    fn call_taint_flags_indirect_sources_through_helpers() {
        let src = "use std::time::Instant;\n\
                   fn seed() -> u64 { Instant::now().elapsed().subsec_nanos() as u64 }\n\
                   fn jitter() -> u64 { seed() / 2 }\n\
                   pub fn scale(g: &mut [f32]) { let s = jitter(); g[0] += s as f32; }\n";
        let v = call_taint_single("crates/nn/src/opt.rs", src);
        // Both hops are flagged: jitter->seed and scale->jitter.
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.lint == "call-taint"));
        assert!(v.iter().all(|x| x.message.contains("Instant::now")));
        assert!(v.iter().all(|x| x.message.contains("`seed`")));
    }

    #[test]
    fn call_taint_covers_thread_identity() {
        let src =
            "fn salt() -> u64 { format!(\"{:?}\", std::thread::current().id()).len() as u64 }\n\
                   pub fn mix(x: &mut [f32]) { x[0] += salt() as f32; }\n";
        let v = call_taint_single("crates/core/src/sgd.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("thread::current"));
    }

    #[test]
    fn call_taint_respects_sanctions_and_allows() {
        // Wall-clock in a sanctioned file does not taint.
        let src = "use std::time::Instant;\n\
                   fn stopwatch() -> f64 { Instant::now().elapsed().as_secs_f64() }\n\
                   pub fn step() { let _ = stopwatch(); }\n";
        assert!(call_taint_single("crates/core/src/engine/rank.rs", src).is_empty());
        // An allowed call site is suppressed.
        let allowed = "use std::time::Instant;\n\
                       fn seed() -> u64 { Instant::now().elapsed().subsec_nanos() as u64 }\n\
                       pub fn log_step() {\n\
                       let s = seed(); // lint:allow(call-taint): diagnostics only\n\
                       let _ = s;\n}\n";
        assert!(call_taint_single("crates/core/src/log.rs", allowed).is_empty());
        // Ambiguous names (defined twice) are conservatively skipped.
        let dup = "use std::time::Instant;\n\
                   mod a { pub fn tick() -> u64 { 0 } }\n\
                   mod b { pub fn tick() -> u64 { Instant::now().subsec_nanos() as u64 } }\n\
                   pub fn run() { let _ = a::tick(); }\n";
        let v = call_taint_single("crates/core/src/dup.rs", dup);
        assert!(v.is_empty(), "ambiguous `tick` must not resolve: {v:?}");
    }

    #[test]
    fn call_taint_outside_numeric_crates_is_silent() {
        let src = "use std::time::Instant;\n\
                   fn seed() -> u64 { Instant::now().elapsed().subsec_nanos() as u64 }\n\
                   pub fn run() { let _ = seed(); }\n";
        assert!(call_taint_single("crates/bench/src/figures.rs", src).is_empty());
    }
}
