//! The determinism & safety rule catalogue.
//!
//! Every rule works on the token stream of one file (see
//! [`crate::lexer`]); none require type information. Where a rule needs
//! to know "is this receiver a hash collection", it uses **name-level
//! resolution within the file**: `use`/`type` aliases of
//! `HashMap`/`HashSet` are chased, then every identifier declared with
//! a hash-typed annotation (struct fields, `let` bindings, fn params)
//! or initialized from one is treated as hash-typed. This is a
//! heuristic — it cannot see across files and it resolves by *name*,
//! so a local that shares its name with a hash-typed field elsewhere
//! in the same file is also treated as hash-typed. Rename the local or
//! add an inline `// lint:allow(...)` marker when that bites.
//!
//! | id   | scope                | violation |
//! |------|----------------------|-----------|
//! | D001 | deterministic crates | iteration over `HashMap`/`HashSet` (order is nondeterministic across processes) |
//! | D002 | all audited crates   | wall-clock reads (`Instant::now`, `SystemTime`) |
//! | D003 | all audited crates   | ambient randomness (`thread_rng`, `rand::random`, `from_entropy`, `OsRng`) |
//! | D004 | all audited crates   | `std::thread` / `std::sync::mpsc` concurrency outside `bench::parallel` / `sim::exec` |
//! | D005 | deterministic crates | float-ordered sorts via `partial_cmp` (NaN breaks total order) |
//! | D006 | all audited crates   | crate root missing `#![forbid(unsafe_code)]` |
//! | D007 | deterministic crates | `.clone()` of an engine message payload (per-destination payload clones defeat the shared-payload fan-out; use `Payload`/`multicast`) |

use crate::config::RuleConfig;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::{cfg, dataflow, parse};

/// Per-file context handed to every rule.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path (used in findings).
    pub path: &'a str,
    /// Whether the file belongs to a deterministic crate (the simulator
    /// and everything it drives must replay byte-identically).
    pub deterministic: bool,
    /// Whether this file is the crate root (`src/lib.rs`/`src/main.rs`).
    pub is_crate_root: bool,
    pub tokens: &'a [Token],
    /// Registries for D008–D011.
    pub rules: &'a RuleConfig,
}

/// Rule ids in catalogue order, for `--list-rules`.
pub const RULES: &[(&str, &str)] = &[
    ("D000", "allow-marker hygiene: malformed, reason-less or unused markers and stale baseline entries"),
    ("D001", "no iteration over HashMap/HashSet in deterministic crates (iteration order is nondeterministic)"),
    ("D002", "no wall-clock reads (Instant::now, SystemTime) — simulated time only"),
    ("D003", "no ambient randomness (thread_rng, rand::random, from_entropy, OsRng) — seed every RNG from a named stream constant"),
    ("D004", "no std::thread / std::sync::mpsc outside the sanctioned concurrency modules (bench worker pool, sim partitioned executor)"),
    ("D005", "no float-ordered sorts via partial_cmp in deterministic crates — use total_cmp"),
    ("D006", "every crate root carries #![forbid(unsafe_code)]"),
    ("D007", "no .clone() of engine message payloads in deterministic crates — share via Payload/multicast; only the engine's fault-duplication path may copy"),
    ("D008", "timer-handle discipline: a binding from a timer-acquire fn must be cancelled or stored on every path — a handle dropped while armed is a leak (use a detached timer for fire-and-forget)"),
    ("D009", "stale arena-index escape: a dense index binding may not be used after a registered invalidation point (slot recycle, clear_node, mem::take) without re-lookup"),
    ("D010", "RNG stream discipline: every seed_from_u64 in a deterministic crate must mix a registered stream constant, used only in its declared subsystem file"),
    ("D011", "metrics/trace name registry: counter/gauge/trace-event name literals passed to emitter fns must be declared in lint.toml [metrics]"),
];

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Comparator-taking sort/ordering functions D005 inspects.
const CMP_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// Runs every applicable rule over one file.
#[must_use]
pub fn check_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if ctx.deterministic {
        d001_hash_iteration(ctx, &mut out);
        d005_partial_cmp_sorts(ctx, &mut out);
        d007_payload_clone(ctx, &mut out);
        // The flow-sensitive pair shares one parse + CFG build.
        let funcs = parse::parse_functions(ctx.tokens);
        let cfgs: Vec<cfg::Cfg> = funcs.iter().map(|f| cfg::build(f, ctx.tokens)).collect();
        d008_timer_discipline(ctx, &funcs, &cfgs, &mut out);
        d009_stale_index(ctx, &funcs, &cfgs, &mut out);
        d010_rng_streams(ctx, &mut out);
        d011_metric_names(ctx, &mut out);
    }
    d002_wall_clock(ctx, &mut out);
    d003_ambient_randomness(ctx, &mut out);
    d004_threads(ctx, &mut out);
    if ctx.is_crate_root {
        d006_forbid_unsafe(ctx, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn finding(ctx: &FileCtx, rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.path.to_string(),
        line,
        message,
    }
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.as_bytes()[0] == c as u8
}

/// Matches a path pattern at `i`. Segments are identifiers; `"::"`
/// consumes two `:` punct tokens. Returns the index one past the match.
fn match_path(tokens: &[Token], i: usize, segs: &[&str]) -> Option<usize> {
    let mut at = i;
    for &s in segs {
        if s == "::" {
            if at + 1 < tokens.len() && is_punct(&tokens[at], ':') && is_punct(&tokens[at + 1], ':')
            {
                at += 2;
            } else {
                return None;
            }
        } else if at < tokens.len() && is_ident(&tokens[at], s) {
            at += 1;
        } else {
            return None;
        }
    }
    Some(at)
}

// --------------------------------------------------------------- D001

/// Chases `use ... as X` and `type X = ...` aliases of
/// `HashMap`/`HashSet` to a fixpoint; returns every name that denotes a
/// hash collection type in this file.
fn hash_type_names(tokens: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = vec!["HashMap".into(), "HashSet".into()];
    loop {
        let before = names.len();
        for (i, t) in tokens.iter().enumerate() {
            // `HashMap as Map`
            if t.kind == TokenKind::Ident
                && names.contains(&t.text)
                && match_path(tokens, i + 1, &["as"]).is_some()
            {
                if let Some(alias) = tokens.get(i + 2) {
                    if alias.kind == TokenKind::Ident && !names.contains(&alias.text) {
                        names.push(alias.text.clone());
                    }
                }
            }
            // `type X<...> = <rhs>;` with a hash name in the rhs
            if is_ident(t, "type") {
                let Some(name) = tokens.get(i + 1) else {
                    continue;
                };
                if name.kind != TokenKind::Ident {
                    continue;
                }
                let mut j = i + 2;
                while j < tokens.len() && !is_punct(&tokens[j], '=') && !is_punct(&tokens[j], ';') {
                    j += 1;
                }
                if j >= tokens.len() || !is_punct(&tokens[j], '=') {
                    continue;
                }
                let mut k = j + 1;
                let mut rhs_hash = false;
                while k < tokens.len() && !is_punct(&tokens[k], ';') {
                    if tokens[k].kind == TokenKind::Ident && names.contains(&tokens[k].text) {
                        rhs_hash = true;
                    }
                    k += 1;
                }
                if rhs_hash && !names.contains(&name.text) {
                    names.push(name.text.clone());
                }
            }
        }
        if names.len() == before {
            return names;
        }
    }
}

/// Identifiers bound to hash-typed values in this file: `x: HashMap<..>`
/// annotations (fields, params, lets, struct-literal fields initialized
/// from hash types) and `let x = <expr involving a hash name>;`.
fn hash_bound_idents(tokens: &[Token], type_names: &[String]) -> Vec<String> {
    let mut bound: Vec<String> = Vec::new();
    let is_hash = |t: &Token, bound: &[String]| {
        t.kind == TokenKind::Ident && (type_names.contains(&t.text) || bound.contains(&t.text))
    };
    for _ in 0..3 {
        let before = bound.len();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            // `name : <type-or-value tokens>` up to a delimiter at angle
            // depth 0. Covers struct fields, fn params, annotated lets
            // and struct-literal initializers.
            if t.kind == TokenKind::Ident
                && i + 1 < tokens.len()
                && is_punct(&tokens[i + 1], ':')
                && !(i + 2 < tokens.len() && is_punct(&tokens[i + 2], ':'))
                && (i == 0 || !is_punct(&tokens[i - 1], ':'))
            {
                let mut depth = 0i32;
                let mut j = i + 2;
                let mut saw_hash = false;
                while j < tokens.len() {
                    let u = &tokens[j];
                    if is_punct(u, '<') || is_punct(u, '(') || is_punct(u, '[') {
                        depth += 1;
                    } else if is_punct(u, '>') || is_punct(u, ')') || is_punct(u, ']') {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if depth == 0
                        && (is_punct(u, ',')
                            || is_punct(u, ';')
                            || is_punct(u, '=')
                            || is_punct(u, '{')
                            || is_punct(u, '}'))
                    {
                        break;
                    }
                    if is_hash(u, &bound) {
                        saw_hash = true;
                    }
                    j += 1;
                    if j - i > 64 {
                        break; // annotation scan bound
                    }
                }
                if saw_hash && !bound.contains(&t.text) {
                    bound.push(t.text.clone());
                }
            }
            // `let [mut] name = <expr>;` where the expr mentions a hash
            // name (covers `let m = &mut self.timer_meta[i];`).
            if is_ident(t, "let") {
                let mut j = i + 1;
                if j < tokens.len() && is_ident(&tokens[j], "mut") {
                    j += 1;
                }
                let Some(name) = tokens.get(j) else {
                    i += 1;
                    continue;
                };
                if name.kind == TokenKind::Ident
                    && tokens.get(j + 1).is_some_and(|u| is_punct(u, '='))
                {
                    let mut k = j + 2;
                    let mut saw_hash = false;
                    while k < tokens.len() && !is_punct(&tokens[k], ';') && k - j < 48 {
                        if is_hash(&tokens[k], &bound) {
                            saw_hash = true;
                        }
                        k += 1;
                    }
                    if saw_hash && !bound.contains(&name.text) {
                        bound.push(name.text.clone());
                    }
                }
            }
            i += 1;
        }
        if bound.len() == before {
            break;
        }
    }
    bound
}

/// Walks backwards from the `.` of a method call to the *direct*
/// receiver identifier (`self.a[i].retain` → `a`, `m.retain` → `m`).
/// Bracketed index/call groups are skipped wholesale so their contents
/// never contribute a name; outer chain segments (`state` in
/// `state.holders.retain`) are deliberately ignored — only the place
/// being iterated matters.
fn direct_receiver(tokens: &[Token], dot: usize) -> Option<String> {
    let mut i = dot;
    while i > 0 {
        i -= 1;
        let t = &tokens[i];
        if is_punct(t, ')') || is_punct(t, ']') {
            // skip to the matching opener
            let (open, close) = if is_punct(t, ')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 1i32;
            while i > 0 && depth > 0 {
                i -= 1;
                if is_punct(&tokens[i], close) {
                    depth += 1;
                } else if is_punct(&tokens[i], open) {
                    depth -= 1;
                }
            }
        } else if t.kind == TokenKind::Ident {
            return Some(t.text.clone());
        } else {
            return None;
        }
    }
    None
}

fn d001_hash_iteration(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    let type_names = hash_type_names(tokens);
    let bound = hash_bound_idents(tokens, &type_names);
    if bound.is_empty() {
        return;
    }
    let mut seen_lines: Vec<u32> = Vec::new();
    let mut push = |out: &mut Vec<Finding>, line: u32, what: &str, via: &str| {
        if seen_lines.contains(&line) {
            return;
        }
        seen_lines.push(line);
        out.push(finding(
            ctx,
            "D001",
            line,
            format!(
                "iteration over hash collection `{via}` ({what}); HashMap/HashSet order differs \
                 across processes — use BTreeMap/BTreeSet or a sorted vec"
            ),
        ));
    };
    for (i, t) in tokens.iter().enumerate() {
        // `.iter()` / `.retain(..)` / ... on a hash-bound receiver.
        if t.kind == TokenKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && i >= 1
            && is_punct(&tokens[i - 1], '.')
            && tokens.get(i + 1).is_some_and(|u| is_punct(u, '('))
        {
            if let Some(recv) = direct_receiver(tokens, i - 1) {
                if bound.contains(&recv) {
                    push(out, t.line, &format!(".{}()", t.text), &recv);
                }
            }
        }
        // `for <pat> in <expr> {` where the expr mentions a hash-bound
        // name directly (not through a method call, which the arm above
        // already reports).
        if is_ident(t, "for") {
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut found_in = None;
            while j < tokens.len() && j - i < 48 {
                let u = &tokens[j];
                if is_punct(u, '(') || is_punct(u, '[') {
                    depth += 1;
                } else if is_punct(u, ')') || is_punct(u, ']') {
                    depth -= 1;
                } else if depth == 0 && is_ident(u, "in") {
                    found_in = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(in_at) = found_in else { continue };
            let mut k = in_at + 1;
            let mut depth = 0i32;
            while k < tokens.len() && k - in_at < 48 {
                let u = &tokens[k];
                if is_punct(u, '(') || is_punct(u, '[') {
                    depth += 1;
                } else if is_punct(u, ')') || is_punct(u, ']') {
                    depth -= 1;
                } else if depth == 0 && is_punct(u, '{') {
                    break;
                } else if u.kind == TokenKind::Ident && bound.contains(&u.text) {
                    push(out, t.line, "for-loop", &u.text);
                    break;
                }
                k += 1;
            }
        }
    }
}

// --------------------------------------------------------------- D002

fn d002_wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if is_ident(t, "Instant") && match_path(ctx.tokens, i + 1, &["::", "now"]).is_some() {
            out.push(finding(
                ctx,
                "D002",
                t.line,
                "wall-clock read `Instant::now()`; simulated components must use engine time"
                    .into(),
            ));
        }
        if is_ident(t, "SystemTime") {
            out.push(finding(
                ctx,
                "D002",
                t.line,
                "wall-clock type `SystemTime`; simulated components must use engine time".into(),
            ));
        }
    }
}

// --------------------------------------------------------------- D003

fn d003_ambient_randomness(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        let bad = if is_ident(t, "thread_rng")
            || is_ident(t, "from_entropy")
            || is_ident(t, "OsRng")
            || is_ident(t, "getrandom")
        {
            Some(t.text.clone())
        } else if is_ident(t, "rand") && match_path(ctx.tokens, i + 1, &["::", "random"]).is_some()
        {
            Some("rand::random".into())
        } else {
            None
        };
        if let Some(what) = bad {
            out.push(finding(
                ctx,
                "D003",
                t.line,
                format!("ambient randomness `{what}`; construct every RNG from a named seed/stream constant"),
            ));
        }
    }
}

// --------------------------------------------------------------- D004

fn d004_threads(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let mut seen_lines: Vec<u32> = Vec::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        let hit = if match_path(ctx.tokens, i, &["std", "::", "thread"]).is_some() {
            Some("std::thread")
        } else if match_path(ctx.tokens, i, &["std", "::", "sync", "::", "mpsc"]).is_some() {
            Some("std::sync::mpsc")
        } else if match_path(ctx.tokens, i, &["thread", "::", "spawn"]).is_some() {
            Some("thread::spawn")
        } else if match_path(ctx.tokens, i, &["mpsc", "::", "channel"]).is_some() {
            Some("mpsc::channel")
        } else {
            None
        };
        if let Some(what) = hit {
            if !seen_lines.contains(&t.line) {
                seen_lines.push(t.line);
                out.push(finding(
                    ctx,
                    "D004",
                    t.line,
                    format!("`{what}`: threads/channels are reserved for the sanctioned concurrency modules (`bench::parallel`, `sim::exec`)"),
                ));
            }
        }
    }
}

// --------------------------------------------------------------- D005

fn d005_partial_cmp_sorts(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !CMP_FNS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(open) = tokens.get(i + 1) else {
            continue;
        };
        if !is_punct(open, '(') {
            continue;
        }
        let mut depth = 1i32;
        let mut j = i + 2;
        while j < tokens.len() && depth > 0 {
            let u = &tokens[j];
            if is_punct(u, '(') {
                depth += 1;
            } else if is_punct(u, ')') {
                depth -= 1;
            } else if is_ident(u, "partial_cmp") {
                out.push(finding(
                    ctx,
                    "D005",
                    t.line,
                    format!(
                        "`{}` comparator uses `partial_cmp`; NaN makes the order partial and \
                         platform/input dependent — use `f64::total_cmp`",
                        t.text
                    ),
                ));
                break;
            }
            j += 1;
        }
    }
}

// --------------------------------------------------------------- D007

/// Identifiers that denote an engine message payload by the workspace's
/// own naming convention (`Engine::send(.., payload, ..)` and every
/// protocol handler use this name for the in-flight message body).
const PAYLOAD_IDENTS: &[&str] = &["payload"];

/// Flags `.clone()` whose direct receiver is a message payload. A
/// fan-out of one large body goes through `Engine::multicast`, and the
/// engine's fault-duplication path shares the `Rc` instead of cloning —
/// a fresh `payload.clone()` is a per-destination copy of the full
/// message body. Like D001, resolution is by name within the file;
/// rename the local or add an inline `// lint:allow(D007): ...` marker
/// for a justified copy.
fn d007_payload_clone(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && t.text == "clone"
            && i >= 1
            && is_punct(&tokens[i - 1], '.')
            && tokens.get(i + 1).is_some_and(|u| is_punct(u, '('))
        {
            if let Some(recv) = direct_receiver(tokens, i - 1) {
                if PAYLOAD_IDENTS.contains(&recv.as_str()) {
                    out.push(finding(
                        ctx,
                        "D007",
                        t.line,
                        format!(
                            "`{recv}.clone()` copies a full message payload per destination; \
                             share one allocation via `Engine::multicast` \
                             (`Payload` envelope) instead"
                        ),
                    ));
                }
            }
        }
    }
}

// --------------------------------------------------------------- D006

fn d006_forbid_unsafe(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if is_punct(t, '#')
            && tokens.get(i + 1).is_some_and(|u| is_punct(u, '!'))
            && tokens.get(i + 2).is_some_and(|u| is_punct(u, '['))
            && tokens
                .get(i + 3)
                .is_some_and(|u| is_ident(u, "forbid") || is_ident(u, "deny"))
            && tokens.get(i + 4).is_some_and(|u| is_punct(u, '('))
            && tokens
                .get(i + 5)
                .is_some_and(|u| is_ident(u, "unsafe_code"))
        {
            return;
        }
    }
    out.push(finding(
        ctx,
        "D006",
        1,
        "crate root is missing `#![forbid(unsafe_code)]`".into(),
    ));
}

// --------------------------------------------------------------- D008

fn d008_timer_discipline(
    ctx: &FileCtx,
    funcs: &[parse::Func],
    cfgs: &[cfg::Cfg],
    out: &mut Vec<Finding>,
) {
    let r = ctx.rules;
    if r.timer_acquire.is_empty() {
        return;
    }
    for (f, g) in funcs.iter().zip(cfgs) {
        for leak in dataflow::timer_leaks(g, ctx.tokens, &r.timer_acquire, &r.timer_detached) {
            out.push(finding(
                ctx,
                "D008",
                leak.line,
                format!(
                    "timer handle `{}` (armed via `{}` in `{}`) can go out of scope \
                     still armed on some path — cancel it, store it in state released \
                     by a teardown fn ({}), or arm a detached timer",
                    leak.var,
                    leak.via,
                    f.name,
                    r.teardown.join("/"),
                ),
            ));
        }
    }
}

// --------------------------------------------------------------- D009

fn d009_stale_index(
    ctx: &FileCtx,
    funcs: &[parse::Func],
    cfgs: &[cfg::Cfg],
    out: &mut Vec<Finding>,
) {
    let r = ctx.rules;
    if r.index_acquire.is_empty() {
        return;
    }
    // Teardown fns recycle slots, so they are invalidation points too.
    let mut invalidate = r.index_invalidate.clone();
    for t in &r.teardown {
        if !invalidate.contains(t) {
            invalidate.push(t.clone());
        }
    }
    for (f, g) in funcs.iter().zip(cfgs) {
        for u in dataflow::stale_index_uses(g, ctx.tokens, &r.index_acquire, &invalidate) {
            out.push(finding(
                ctx,
                "D009",
                u.use_line,
                format!(
                    "dense index `{}` (looked up on line {} in `{}`) is used after \
                     `{}` may have invalidated it — re-look it up past the \
                     invalidation point",
                    u.var, u.def_line, f.name, u.invalidated_by,
                ),
            ));
        }
    }
}

// --------------------------------------------------------------- D010

/// Paths whose code is outside the deterministic replay surface: test,
/// bench and example trees draw from ad-hoc seeds by design.
fn is_test_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| p.starts_with(d) || p.contains(&format!("/{d}")))
}

/// Index of the first `#[cfg(test)]` attribute, or `usize::MAX`; the
/// registry rules ignore tokens past it (unit-test modules sit at the
/// end of a file by workspace convention).
fn cfg_test_boundary(tokens: &[Token]) -> usize {
    for i in 0..tokens.len() {
        if is_punct(&tokens[i], '#')
            && tokens.get(i + 1).is_some_and(|t| is_punct(t, '['))
            && tokens.get(i + 2).is_some_and(|t| is_ident(t, "cfg"))
            && tokens.get(i + 3).is_some_and(|t| is_punct(t, '('))
            && tokens.get(i + 4).is_some_and(|t| is_ident(t, "test"))
        {
            return i;
        }
    }
    usize::MAX
}

fn d010_rng_streams(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let streams = &ctx.rules.streams;
    if streams.is_empty() || is_test_path(ctx.path) {
        return;
    }
    let tokens = ctx.tokens;
    let boundary = cfg_test_boundary(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if i >= boundary {
            break;
        }
        if !is_ident(t, "seed_from_u64") || !tokens.get(i + 1).is_some_and(|u| is_punct(u, '(')) {
            continue;
        }
        // Collect the argument tokens up to the matching `)`.
        let mut depth = 1i32;
        let mut j = i + 2;
        let arg_lo = j;
        while j < tokens.len() && depth > 0 {
            if is_punct(&tokens[j], '(') {
                depth += 1;
            } else if is_punct(&tokens[j], ')') {
                depth -= 1;
            }
            j += 1;
        }
        let args = &tokens[arg_lo..j.saturating_sub(1).max(arg_lo)];
        let hit = streams
            .iter()
            .find(|s| args.iter().any(|a| a.text == s.pattern));
        match hit {
            None => out.push(finding(
                ctx,
                "D010",
                t.line,
                "`seed_from_u64` without a registered stream constant in the seed \
                 expression; declare the subsystem's stream in lint.toml [[stream]] \
                 and mix it in (seed ^ STREAM) so draw order survives refactors"
                    .into(),
            )),
            Some(s) if s.path != ctx.path => out.push(finding(
                ctx,
                "D010",
                t.line,
                format!(
                    "RNG stream `{}` ({}) is declared for `{}` but seeded here — \
                     each subsystem draws only from its own stream",
                    s.name, s.pattern, s.path,
                ),
            )),
            Some(_) => {}
        }
    }
}

// --------------------------------------------------------------- D011

fn d011_metric_names(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let r = ctx.rules;
    if r.metric_names.is_empty() || r.metric_emitters.is_empty() || is_test_path(ctx.path) {
        return;
    }
    let tokens = ctx.tokens;
    let boundary = cfg_test_boundary(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if i >= boundary {
            break;
        }
        if t.kind != TokenKind::Ident
            || !r.metric_emitters.contains(&t.text)
            || !tokens.get(i + 1).is_some_and(|u| is_punct(u, '('))
        {
            continue;
        }
        // Every string literal among the call's arguments must be a
        // registered name (emitters take only name strings as text).
        let mut depth = 1i32;
        let mut j = i + 2;
        while j < tokens.len() && depth > 0 {
            let u = &tokens[j];
            if is_punct(u, '(') {
                depth += 1;
            } else if is_punct(u, ')') {
                depth -= 1;
            } else if u.kind == TokenKind::Literal && u.text.starts_with('"') {
                let name = u.text.trim_matches('"');
                if !r.metric_names.iter().any(|n| n == name) {
                    out.push(finding(
                        ctx,
                        "D011",
                        u.line,
                        format!(
                            "metric/trace name \"{name}\" passed to `{}` is not in the \
                             lint.toml [metrics] registry — declare it there (and in \
                             DESIGN.md) or fix the typo",
                            t.text,
                        ),
                    ));
                }
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(src: &str, deterministic: bool) -> Vec<Finding> {
        check_rules(src, deterministic, &RuleConfig::default())
    }

    fn check_rules(src: &str, deterministic: bool, rules: &RuleConfig) -> Vec<Finding> {
        let lexed = lex(src);
        check_file(&FileCtx {
            path: "test.rs",
            deterministic,
            is_crate_root: false,
            tokens: &lexed.tokens,
            rules,
        })
    }

    #[test]
    fn d001_tracks_aliases_and_fields() {
        let src = "
            use std::collections::HashMap as Map;
            struct S { m: Map<u32, u32> }
            impl S { fn f(&self) { for (k, v) in &self.m {} } }
        ";
        let f = check(src, true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D001");
    }

    #[test]
    fn d001_type_alias_chain_and_let_propagation() {
        let src = "
            use std::collections::HashMap;
            type SeqMap<V> = HashMap<u64, V, SeqBuild>;
            struct T { meta: Vec<SeqMap<u64>> }
            impl T { fn f(&mut self, i: usize) {
                let m = &mut self.meta[i];
                m.retain(|_, _| true);
            } }
        ";
        let f = check(src, true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".retain()"));
    }

    #[test]
    fn d001_ignores_lookup_only_and_nondeterministic_crates() {
        let src = "
            use std::collections::HashMap;
            struct S { m: HashMap<u32, u32> }
            impl S { fn g(&self) -> Option<&u32> { self.m.get(&1) } }
        ";
        assert!(check(src, true).is_empty());
        let iter = "
            use std::collections::HashMap;
            fn f(m: HashMap<u32, u32>) { for k in m.keys() {} }
        ";
        assert!(!check(iter, true).is_empty());
        assert!(
            check(iter, false).is_empty(),
            "rule only runs in deterministic crates"
        );
    }

    #[test]
    fn d001_btreemap_is_clean() {
        let src = "
            use std::collections::BTreeMap;
            fn f(m: BTreeMap<u32, u32>) { for k in m.keys() {} m.len(); }
        ";
        assert!(check(src, true).is_empty());
    }

    #[test]
    fn d002_wall_clock() {
        let f = check("fn f() { let t = std::time::Instant::now(); }", false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D002");
        let f = check("use std::time::SystemTime;", false);
        assert_eq!(f.len(), 1);
        assert!(check("fn f() { let i: Instant = t; }", false).is_empty());
    }

    #[test]
    fn d003_ambient_randomness() {
        assert_eq!(check("let r = rand::thread_rng();", false)[0].rule, "D003");
        assert_eq!(check("let x: u8 = rand::random();", false)[0].rule, "D003");
        assert_eq!(
            check("let r = StdRng::from_entropy();", false)[0].rule,
            "D003"
        );
        assert!(check("let r = StdRng::seed_from_u64(SEED ^ 0xfa01);", false).is_empty());
        assert!(
            check("fn random_walk() {}", false).is_empty(),
            "bare `random` ident is fine"
        );
    }

    #[test]
    fn d004_threads() {
        assert_eq!(check("use std::thread;", false)[0].rule, "D004");
        assert_eq!(check("use std::sync::mpsc;", false)[0].rule, "D004");
        assert_eq!(check("let h = thread::spawn(|| 1);", false)[0].rule, "D004");
        assert!(check("fn thread_count() -> usize { 1 }", false).is_empty());
    }

    #[test]
    fn d005_partial_cmp_sorts() {
        let f = check(
            "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
            true,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D005");
        assert!(check("fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }", true).is_empty());
        assert!(
            check(
                "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }",
                true
            )
            .is_empty(),
            "partial_cmp outside a sort comparator is not D005"
        );
    }

    #[test]
    fn d007_payload_clone() {
        let f = check(
            "fn f() { for &to in dests { eng.send(from, to, payload.clone(), 64, c); } }",
            true,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D007");
        assert!(
            check(
                "fn f() { eng.multicast(from, dests, payload, 64, c); }",
                true
            )
            .is_empty(),
            "multicast without cloning is clean"
        );
        assert!(
            check("fn f() { let p = config.clone(); }", true).is_empty(),
            "cloning non-payload values is not D007"
        );
        assert!(
            check(
                "fn f() { for &to in dests { eng.send(from, to, payload.clone(), 64, c); } }",
                false
            )
            .is_empty(),
            "rule only runs in deterministic crates"
        );
    }

    #[test]
    fn d006_crate_root() {
        let rules = RuleConfig::default();
        let lexed = lex("//! docs\npub fn f() {}\n");
        let f = check_file(&FileCtx {
            path: "src/lib.rs",
            deterministic: true,
            is_crate_root: true,
            tokens: &lexed.tokens,
            rules: &rules,
        });
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D006");
        let lexed = lex("#![forbid(unsafe_code)]\npub fn f() {}\n");
        let f = check_file(&FileCtx {
            path: "src/lib.rs",
            deterministic: true,
            is_crate_root: true,
            tokens: &lexed.tokens,
            rules: &rules,
        });
        assert!(f.is_empty());
    }

    #[test]
    fn d008_flags_leak_and_honours_consumption() {
        let bad = "impl A { fn f(&mut self, c: bool) {
            let h = self.set_timer(eng, n, d, t);
            if c { self.keep = Some(h); }
        } }";
        let f = check(bad, true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D008");
        assert!(f[0].message.contains('h'));
        let good = "impl A { fn f(&mut self, c: bool) {
            let h = self.set_timer(eng, n, d, t);
            if c { self.keep = Some(h); } else { eng.cancel_timer(h); }
        } }";
        assert!(check(good, true).is_empty());
        assert!(
            check(bad, false).is_empty(),
            "flow rules only run in deterministic crates"
        );
    }

    #[test]
    fn d009_flags_use_after_invalidation() {
        let bad = "impl A { fn f(&mut self, h: Handle) {
            let s = self.slot_of(h);
            self.release_slot(s);
            self.scan[s] = 0;
        } }";
        let f = check(bad, true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D009");
        // Teardown fns double as invalidation points.
        let bad2 = "impl A { fn f(&mut self, h: Handle) {
            let s = self.slot_of(h);
            self.clear_node(n);
            touch(s);
        } }";
        assert_eq!(check(bad2, true).len(), 1);
        let good = "impl A { fn f(&mut self, h: Handle) {
            let s = self.slot_of(h);
            self.scan[s] = 0;
            self.release_slot(s);
        } }";
        assert!(check(good, true).is_empty());
    }

    fn rules_with_stream(path: &str) -> RuleConfig {
        RuleConfig {
            streams: vec![crate::config::StreamDecl {
                name: "topology".into(),
                pattern: "TOPOLOGY_STREAM".into(),
                path: path.into(),
                line: 0,
            }],
            ..RuleConfig::default()
        }
    }

    #[test]
    fn d010_stream_registry() {
        // Registry empty: rule is off.
        assert!(check("fn f() { let r = Rng::seed_from_u64(seed); }", true).is_empty());
        let r = rules_with_stream("test.rs");
        let clean = "fn f() { let r = Rng::seed_from_u64(seed ^ TOPOLOGY_STREAM); }";
        assert!(check_rules(clean, true, &r).is_empty());
        let bare = "fn f() { let r = Rng::seed_from_u64(seed); }";
        let f = check_rules(bare, true, &r);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D010");
        // Stream declared for a different file: using it here is a leak
        // across subsystems.
        let elsewhere = rules_with_stream("crates/sim/src/topology.rs");
        let f = check_rules(clean, true, &elsewhere);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("declared for"));
    }

    #[test]
    fn d011_metric_name_registry() {
        // Registry empty: rule is off.
        let src = r#"fn f(eng: &mut E) { eng.set_counter(n, "app.bogus", 1); }"#;
        assert!(check(src, true).is_empty());
        let r = RuleConfig {
            metric_names: vec!["app.known".into()],
            ..RuleConfig::default()
        };
        let f = check_rules(src, true, &r);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D011");
        assert!(f[0].message.contains("app.bogus"));
        let ok = r#"fn f(eng: &mut E) { eng.set_counter(n, "app.known", 1); }"#;
        assert!(check_rules(ok, true, &r).is_empty());
        // Unit tests below a #[cfg(test)] boundary are exempt.
        let test_mod = "#[cfg(test)]\nmod tests { fn f(eng: &mut E) { eng.set_counter(n, \"app.bogus\", 1); } }";
        assert!(check_rules(test_mod, true, &r).is_empty());
    }
}
