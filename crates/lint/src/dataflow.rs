//! Abstract-state dataflow over the conservative CFG.
//!
//! A forward may-analysis runs on [`crate::cfg`] graphs with a worklist
//! fixpoint (in-states only grow under set union, the transfer function
//! is monotone, the abstract domain is finite — so it terminates on any
//! input the parser produces):
//!
//! * **Stale-index poisoning (D009)** — a `let` binding initialized
//!   from a registered index-acquire call starts *valid*; crossing a
//!   statement that calls a registered invalidation point poisons
//!   every tracked index (passing the index *into* the invalidation
//!   call itself is fine — the use precedes the poison). Any use of a
//!   poisoned binding is a finding: the dense index may now name a
//!   recycled slot.
//!
//! The analysis resolves calls by *name* (`.release_slot(`,
//! `mem::take(`), matching the rest of the auditor's single-file,
//! type-free design.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::cfg::{Cfg, NodeKind};
use crate::lexer::{Token, TokenKind};

/// One use of a possibly-stale index.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StaleIndexUse {
    pub var: String,
    /// Line of the acquiring `let`.
    pub def_line: u32,
    /// Line of the use after invalidation.
    pub use_line: u32,
    /// The invalidation call crossed in between.
    pub invalidated_by: String,
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.as_bytes()[0] == c as u8
}

/// Finds a call to any of `fns` inside `[lo, hi)`: an entry is either a
/// bare name (`slot_of`, matched as `name(`) or a `::` path
/// (`mem::take`, matched segment-wise, so `std::mem::take(` also hits).
/// Returns the matched entry.
fn call_in_range<'a>(tokens: &[Token], lo: usize, hi: usize, fns: &'a [String]) -> Option<&'a str> {
    let hi = hi.min(tokens.len());
    let lo = lo.min(hi);
    for f in fns {
        if f.contains("::") {
            let segs: Vec<&str> = f.split("::").collect();
            let mut i = lo;
            'site: while i < hi {
                if is_ident(&tokens[i], segs[0]) {
                    let mut at = i + 1;
                    for seg in &segs[1..] {
                        if at + 2 < tokens.len()
                            && is_punct(&tokens[at], ':')
                            && is_punct(&tokens[at + 1], ':')
                            && is_ident(&tokens[at + 2], seg)
                        {
                            at += 3;
                        } else {
                            i += 1;
                            continue 'site;
                        }
                    }
                    if tokens.get(at).is_some_and(|t| is_punct(t, '(')) {
                        return Some(f);
                    }
                }
                i += 1;
            }
        } else {
            for i in lo..hi {
                if is_ident(&tokens[i], f) && tokens.get(i + 1).is_some_and(|t| is_punct(t, '(')) {
                    return Some(f);
                }
            }
        }
    }
    None
}

/// Does `var` appear as an identifier anywhere in `[lo, hi)`? Field
/// accesses (`x.var`) count too — by the workspace's conventions a
/// local never shadows a field name it is compared against, and the
/// cost of the over-match is a missed finding, not a false one.
fn uses_var(tokens: &[Token], lo: usize, hi: usize, var: &str) -> bool {
    let hi = hi.min(tokens.len());
    tokens[lo.min(hi)..hi].iter().any(|t| is_ident(t, var))
}

fn flat(node: &NodeKind) -> Option<(usize, usize, u32, Option<&str>)> {
    match node {
        NodeKind::Flat { lo, hi, line, def } => Some((*lo, *hi, *line, def.as_deref())),
        _ => None,
    }
}

/// Worklist driver: runs `transfer` to fixpoint, merging out-states into
/// successor in-states by union. `State` elements are (var, fact) pairs;
/// the in-state map only ever grows.
fn fixpoint<F, Fact>(cfg: &Cfg, transfer: F)
where
    Fact: Ord + Clone,
    F: Fn(u32, &BTreeMap<String, BTreeSet<Fact>>) -> BTreeMap<String, BTreeSet<Fact>>,
{
    let n = cfg.nodes.len();
    let mut in_states: Vec<BTreeMap<String, BTreeSet<Fact>>> = vec![BTreeMap::new(); n];
    let mut work: VecDeque<u32> = VecDeque::new();
    let mut queued = vec![false; n];
    let mut visited = vec![false; n];
    work.push_back(cfg.entry);
    queued[cfg.entry as usize] = true;
    // Safety valve: the union lattice guarantees termination, but cap
    // the iteration count anyway so a latent bug can never hang a lint.
    let mut budget = 64 * n.max(1) * cfg.nodes.len().max(1);
    while let Some(node) = work.pop_front() {
        queued[node as usize] = false;
        if budget == 0 {
            break;
        }
        budget -= 1;
        visited[node as usize] = true;
        let out = transfer(node, &in_states[node as usize]);
        for &succ in &cfg.nodes[node as usize].succs {
            let dst = &mut in_states[succ as usize];
            let mut changed = false;
            for (var, facts) in &out {
                let entry = dst.entry(var.clone()).or_default();
                for f in facts {
                    changed |= entry.insert(f.clone());
                }
            }
            // Every reachable node runs at least once (empty out-states
            // never "change" an in-state, but successors still need
            // their own transfer + successor merge).
            if (changed || !visited[succ as usize]) && !queued[succ as usize] {
                queued[succ as usize] = true;
                work.push_back(succ);
            }
        }
    }
}

/// D009: uses of index bindings after a registered invalidation point.
#[must_use]
pub fn stale_index_uses(
    cfg: &Cfg,
    tokens: &[Token],
    acquire: &[String],
    invalidate: &[String],
) -> Vec<StaleIndexUse> {
    use std::cell::RefCell;
    // Fact = (def line, Some(invalidating fn) once poisoned).
    let findings: RefCell<BTreeSet<StaleIndexUse>> = RefCell::new(BTreeSet::new());
    fixpoint::<_, (u32, Option<String>)>(cfg, |node, in_state| {
        let mut out = in_state.clone();
        if let Some((lo, hi, line, def)) = flat(&cfg.nodes[node as usize].kind) {
            // 1. Uses of already-poisoned bindings are findings; the
            //    binding is then dropped so each (def, use) pair
            //    reports once.
            let mut drop_vars: Vec<String> = Vec::new();
            for (var, facts) in out.iter() {
                // A statement re-defining `var` mentions the ident as
                // its own binding pattern — that is not a use of the
                // old value. (An RHS read in a self-redefining `let`
                // slips through: a false negative, the sanctioned
                // failure direction.)
                if def == Some(var.as_str()) {
                    continue;
                }
                if uses_var(tokens, lo, hi, var) {
                    let mut hit = false;
                    for (def_line, poison) in facts.iter() {
                        if let Some(inv) = poison {
                            findings.borrow_mut().insert(StaleIndexUse {
                                var: var.clone(),
                                def_line: *def_line,
                                use_line: line,
                                invalidated_by: inv.clone(),
                            });
                            hit = true;
                        }
                    }
                    if hit {
                        drop_vars.push(var.clone());
                    }
                }
            }
            for v in drop_vars {
                out.remove(&v);
            }
            // 2. Re-binding replaces any tracked state below.
            if let Some(v) = def {
                out.remove(v);
            }
            // 3. An invalidation call poisons every tracked binding —
            //    including ones passed into the call itself (their use
            //    *in this statement* was checked in step 1 against the
            //    pre-state, so passing an index to `release_slot` is
            //    clean; holding it afterwards is not).
            if let Some(inv) = call_in_range(tokens, lo, hi, invalidate) {
                for facts in out.values_mut() {
                    let poisoned: BTreeSet<(u32, Option<String>)> = facts
                        .iter()
                        .map(|(l, p)| (*l, p.clone().or_else(|| Some(inv.to_string()))))
                        .collect();
                    *facts = poisoned;
                }
            }
            // 4. Gen: a tracked `let` from an index-acquire call (a
            //    fresh lookup is exactly the sanctioned re-validation).
            if let Some(v) = def {
                if call_in_range(tokens, lo, hi, acquire).is_some() {
                    let mut set = BTreeSet::new();
                    set.insert((line, None));
                    out.insert(v.to_string(), set);
                }
            }
        }
        out
    });
    findings.into_inner().into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build;
    use crate::lexer::lex;
    use crate::parse::parse_functions;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn stale_of(src: &str) -> Vec<StaleIndexUse> {
        let tokens = lex(src).tokens;
        let funcs = parse_functions(&tokens);
        let mut out = Vec::new();
        for f in &funcs {
            let cfg = build(f, &tokens);
            out.extend(stale_index_uses(
                &cfg,
                &tokens,
                &strs(&["slot_of", "live_slot"]),
                &strs(&["release_slot", "clear_node", "mem::take"]),
            ));
        }
        out
    }

    #[test]
    fn stale_index_basic() {
        let src = "fn f(&mut self, h: Handle) {
            let s = self.slot_of(h);
            self.release_slot(s);
            self.scan[s] = 0;
        }";
        let u = stale_of(src);
        assert_eq!(u.len(), 1, "{u:?}");
        assert_eq!(u[0].var, "s");
        assert_eq!(u[0].invalidated_by, "release_slot");
        // Passing into the invalidation itself is clean.
        let src = "fn f(&mut self, h: Handle) {
            let s = self.slot_of(h);
            self.scan[s] = 0;
            self.release_slot(s);
        }";
        assert!(stale_of(src).is_empty());
    }

    #[test]
    fn stale_index_relookup_and_mem_take() {
        let src = "fn f(&mut self, h: Handle) {
            let s = self.slot_of(h);
            let drained = std::mem::take(&mut self.held_by[n]);
            touch(s);
        }";
        let u = stale_of(src);
        assert_eq!(u.len(), 1, "{u:?}");
        assert_eq!(u[0].invalidated_by, "mem::take");
        // Re-lookup after the invalidation is the sanctioned pattern.
        let src = "fn f(&mut self, h: Handle) {
            let s = self.slot_of(h);
            self.clear_node(n);
            let s = self.slot_of(h);
            touch(s);
        }";
        assert!(stale_of(src).is_empty(), "{:?}", stale_of(src));
    }

    #[test]
    fn stale_only_on_poisoned_path() {
        let src = "fn f(&mut self, h: Handle, c: bool) {
            let s = self.slot_of(h);
            if c { self.release_slot(other); }
            touch(s);
        }";
        let u = stale_of(src);
        assert_eq!(u.len(), 1, "poisoned on one path is still a finding");
        let src = "fn f(&mut self, h: Handle, c: bool) {
            let s = self.slot_of(h);
            touch(s);
        }";
        assert!(stale_of(src).is_empty());
        // One match arm invalidating is one path too.
        let src = "fn f(&mut self, h: Handle, k: Kind) {
            let s = self.slot_of(h);
            match k {
                Kind::Gone => self.release_slot(other),
                Kind::Kept => {}
            }
            touch(s);
        }";
        assert_eq!(stale_of(src).len(), 1);
    }

    #[test]
    fn stale_across_a_loop_back_edge() {
        // Looked up once, invalidated at the end of an iteration: the
        // next iteration's use reads a recycled slot.
        let src = "fn f(&mut self, h: Handle) {
            let s = self.slot_of(h);
            for n in nodes {
                touch(s);
                self.release_slot(n);
            }
        }";
        let u = stale_of(src);
        assert_eq!(u.len(), 1, "{u:?}");
        // Looked up afresh in every iteration: clean.
        let src = "fn f(&mut self, h: Handle) {
            for n in nodes {
                let s = self.slot_of(h);
                touch(s);
                self.release_slot(n);
            }
        }";
        assert!(stale_of(src).is_empty(), "{:?}", stale_of(src));
    }
}
