//! Concurrency-discipline rules over the call graph: C1
//! blocking-under-lock, C2 lock-order consistency, C3 interprocedural
//! panic reachability.
//!
//! All three work from the same per-function scan: a linear walk of
//! each function body that tracks *lock-guard liveness*. A guard is
//! born at an acquisition site (`.lock(…)`, empty-parens `.read()` /
//! `.write()`, or a configured guard-returning helper), named after its
//! lock site, and dies at an explicit `drop(guard)`, at the end of its
//! binding scope (brace matching), or — for statement-temporaries that
//! never bind the guard — at the end of the statement. The scan is a
//! deliberate under-approximation: a `drop` inside one branch kills the
//! guard for the remainder of the scan, which can only *miss* findings,
//! never invent them.
//!
//! * **C1** fires when a blocking operation (socket/file IO, channel
//!   receive, thread join/sleep — see
//!   [`BLOCKING_TOKENS`](crate::graph::BLOCKING_TOKENS)) is reached
//!   while a guard is live, either directly or one call deep through
//!   the graph. Condvar waits are not blocking here: they release the
//!   guard.
//! * **C2** records each function's ordered pairs of nested lock-site
//!   acquisitions; two sites acquired in opposite orders anywhere in
//!   the workspace are a deadlock risk, flagged at both sites.
//! * **C3** extends S2: functions in panic-free files must not call
//!   workspace functions that can panic (unwrap/expect/panic!/indexing
//!   facts from the graph), transitively to `[rules.C3] depth`, unless
//!   the callee is allowlisted as proven-total in `[rules.C3]
//!   allow_fns`.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::graph::{extract_calls, find_tokens, Graph, LineIndex};
use crate::items;
use crate::workspace::Workspace;

/// How a guard binding holds on to its lock.
#[derive(Clone, Debug, PartialEq, Eq)]
enum GuardKind {
    /// `let g = m.lock()…;` — live until `drop(g)` or scope exit.
    Let(String),
    /// Not bound to a variable: live to the end of the statement.
    Temp { stmt_end: usize },
}

/// A lock acquisition found in a body.
#[derive(Clone, Debug)]
struct Acq {
    /// Byte offset of the acquisition token in the file.
    off: usize,
    /// Heuristic lock-site name (`state`, `STORE`, a helper's argument…).
    site: String,
    kind: GuardKind,
}

/// A live guard during the linear walk.
#[derive(Clone, Debug)]
struct Live {
    var: Option<String>,
    site: String,
    line: usize,
    depth: usize,
    expiry: Option<usize>,
}

/// One nested-acquisition observation, for C2's global order check.
#[derive(Clone, Debug)]
pub struct OrderObs {
    /// Site already held.
    pub held: String,
    /// Site acquired while `held` was live.
    pub acquired: String,
    /// Where (file, line) the nested acquisition happened.
    pub rel: String,
    /// 1-based line of the nested acquisition.
    pub line: usize,
}

/// Runs C1 and C2's per-function scans plus C3's reachability walk,
/// appending diagnostics to `out`.
pub fn check(ws: &Workspace, g: &Graph, out: &mut Vec<Diagnostic>) {
    let mut order: Vec<OrderObs> = Vec::new();
    for (si, sym) in g.symbols.iter().enumerate() {
        if !crate_in_scope(&ws.config.c1_crates, sym.item.krate.as_deref())
            && !crate_in_scope(&ws.config.c2_crates, sym.item.krate.as_deref())
        {
            continue;
        }
        let Some(f) = ws.file_by_rel(&sym.item.rel) else {
            continue;
        };
        let c1 = crate_in_scope(&ws.config.c1_crates, sym.item.krate.as_deref());
        let c2 = crate_in_scope(&ws.config.c2_crates, sym.item.krate.as_deref());
        scan_function(ws, g, si, &f.text, c1, c2, &mut order, out);
    }
    check_c2(&order, out);
    check_c3(ws, g, out);
}

/// Whether a crate list (empty = every crate) covers `krate`.
fn crate_in_scope(list: &[String], krate: Option<&str>) -> bool {
    list.is_empty() || krate.is_some_and(|k| list.iter().any(|c| c == k))
}

/// The linear guard-liveness walk over one function body.
#[allow(clippy::too_many_arguments)]
fn scan_function(
    ws: &Workspace,
    g: &Graph,
    si: usize,
    text: &str,
    c1: bool,
    c2: bool,
    order: &mut Vec<OrderObs>,
    out: &mut Vec<Diagnostic>,
) {
    let sym = &g.symbols[si];
    let body = sym.item.body(text);
    let base = sym.item.body_start + 1;
    let lines = LineIndex::new(text);

    // Gather events: acquisitions, drops, blocking ops, resolvable calls.
    #[derive(Debug)]
    enum Ev {
        Acq(Acq),
        Drop(Vec<String>),
        Block(&'static str),
        Call(usize),
    }
    let mut events: Vec<(usize, Ev)> = Vec::new();
    for acq in find_acquisitions(body, base, &ws.config.c1_guard_helpers) {
        events.push((acq.off, Ev::Acq(acq)));
    }
    for off in find_tokens(body, "drop(") {
        let args = paren_args(body, off + "drop".len());
        let idents = idents_in(args);
        events.push((base + off, Ev::Drop(idents)));
    }
    for (tok, what) in crate::graph::BLOCKING_TOKENS {
        for off in find_tokens(body, tok) {
            events.push((base + off, Ev::Block(what)));
        }
    }
    for call in extract_calls(body, base) {
        // One call deep: only edges whose target blocks matter for C1.
        for e in g.callees(si) {
            if lines.line_of(call.off) == e.line && !g.symbols[e.to].blocking.is_empty() {
                events.push((call.off, Ev::Call(e.to)));
            }
        }
    }
    events.sort_by_key(|(off, _)| *off);

    // Walk the body, counting braces between events.
    let b = body.as_bytes();
    let mut live: Vec<Live> = Vec::new();
    let mut depth = 0usize;
    let mut pos = 0usize;
    let mut reported: BTreeSet<(usize, String)> = BTreeSet::new();
    for (off, ev) in events {
        let rel_off = off - base;
        while pos < rel_off {
            match b[pos] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    live.retain(|l| l.depth <= depth);
                }
                _ => {}
            }
            pos += 1;
        }
        live.retain(|l| l.expiry.is_none_or(|e| e > off));
        let line = lines.line_of(off);
        match ev {
            Ev::Acq(acq) => {
                if c2 {
                    for held in &live {
                        if held.site != acq.site {
                            order.push(OrderObs {
                                held: held.site.clone(),
                                acquired: acq.site.clone(),
                                rel: sym.item.rel.clone(),
                                line,
                            });
                        }
                    }
                }
                let (var, expiry, bind_depth) = match acq.kind {
                    GuardKind::Let(v) => (Some(v), None, depth),
                    GuardKind::Temp { stmt_end } => (None, Some(stmt_end), depth),
                };
                live.push(Live {
                    var,
                    site: acq.site,
                    line,
                    depth: bind_depth,
                    expiry,
                });
            }
            Ev::Drop(idents) => {
                live.retain(|l| {
                    l.var
                        .as_ref()
                        .is_none_or(|v| !idents.iter().any(|i| i == v))
                });
            }
            Ev::Block(what) => {
                if c1 {
                    if let Some(g0) = live.first() {
                        if reported.insert((line, what.to_string())) {
                            out.push(c1_diag(
                                sym.item.rel.clone(),
                                line,
                                format!(
                                    "blocking op ({what}) while lock guard `{}` (acquired line {}) \
                                     is live; drop the guard before blocking",
                                    g0.site, g0.line
                                ),
                            ));
                        }
                    }
                }
            }
            Ev::Call(to) => {
                if c1 {
                    if let Some(g0) = live.first() {
                        let t = &g.symbols[to];
                        let fact = &t.blocking[0];
                        if reported.insert((line, t.item.qname.clone())) {
                            out.push(c1_diag(
                                sym.item.rel.clone(),
                                line,
                                format!(
                                    "call to `{}` — which performs {} at {}:{} — while lock guard \
                                     `{}` (acquired line {}) is live; drop the guard first",
                                    t.item.qname,
                                    fact.what,
                                    t.item.rel,
                                    fact.line,
                                    g0.site,
                                    g0.line
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

fn c1_diag(rel: String, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule: "C1",
        rel,
        line,
        message,
    }
}

/// Finds every lock acquisition in a body. Acquisition forms:
/// `.lock(…)`, empty-parens `.read()` / `.write()` (RwLock — the io
/// traits take arguments), and bare calls to configured guard helpers.
fn find_acquisitions(body: &str, base: usize, helpers: &[String]) -> Vec<Acq> {
    let b = body.as_bytes();
    let mut out = Vec::new();
    let mut push = |tok_off: usize, open: usize, site: String| {
        let kind = classify_binding(body, tok_off, open);
        out.push(Acq {
            off: base + tok_off,
            site,
            kind,
        });
    };
    for tok in [".lock(", ".read()", ".write()"] {
        for off in find_tokens(body, tok) {
            let open = off + tok.trim_end_matches(')').len() - 1;
            let args = paren_args(body, open);
            let site = if tok == ".lock(" && !idents_in(args).is_empty() {
                // Helper method taking the shard/site as an argument.
                first_site_ident(args).unwrap_or_else(|| "lock".to_string())
            } else {
                receiver_ident(body, off).unwrap_or_else(|| "lock".to_string())
            };
            push(off, open, site);
        }
    }
    for helper in helpers {
        let pat = format!("{helper}(");
        for off in find_tokens(body, &pat) {
            // Skip method syntax (`x.lock()` is handled above), path
            // tails (`Mutex::lock`), and definitions (`fn lock(`).
            if off > 0 && (b[off - 1] == b'.' || b[off - 1] == b':') {
                continue;
            }
            if preceded_by_word(body, off, "fn") {
                continue;
            }
            let open = off + helper.len();
            let args = paren_args(body, open);
            let site = first_site_ident(args).unwrap_or_else(|| helper.clone());
            push(off, open, site);
        }
    }
    out.sort_by_key(|a| a.off);
    out
}

/// Whether the word immediately before offset `off` (skipping spaces)
/// is `word`.
fn preceded_by_word(body: &str, off: usize, word: &str) -> bool {
    let b = body.as_bytes();
    let mut t = off;
    while t > 0 && (b[t - 1] == b' ' || b[t - 1] == b'\n' || b[t - 1] == b'\t') {
        t -= 1;
    }
    let mut w = t;
    while w > 0 && items::is_ident(b[w - 1]) {
        w -= 1;
    }
    &body[w..t] == word
}

/// The argument text of a call whose `(` sits at `open`.
fn paren_args(body: &str, open: usize) -> &str {
    let b = body.as_bytes();
    if open >= b.len() || b[open] != b'(' {
        return "";
    }
    let mut depth = 0usize;
    for (j, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return &body[open + 1..j];
                }
            }
            _ => {}
        }
    }
    &body[open + 1..]
}

/// All identifiers in a text fragment.
fn idents_in(s: &str) -> Vec<String> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if items::is_ident_start(b[i]) && !items::prev_is_ident(b, i) {
            let w = items::read_ident(s, i);
            i += w.len();
            out.push(w.to_string());
        } else {
            i += 1;
        }
    }
    out
}

/// The first meaningful identifier of an argument list — the lock-site
/// name for helper-style acquisitions (`lock(self.shard_for(&g))` →
/// `shard_for`, `self.lock(shard)` → `shard`).
fn first_site_ident(args: &str) -> Option<String> {
    idents_in(args)
        .into_iter()
        .find(|w| !matches!(w.as_str(), "self" | "mut" | "ref"))
}

/// The receiver's last identifier before a `.lock()`-style token at
/// `off` (`self.state.lock()` → `state`, `STORE.read()` → `STORE`).
fn receiver_ident(body: &str, off: usize) -> Option<String> {
    let b = body.as_bytes();
    let mut j = off; // offset of the `.`
    let mut w = j;
    while w > 0 && items::is_ident(b[w - 1]) {
        w -= 1;
    }
    if w == j {
        // Receiver ends with `)` or `]` — e.g. `shard_for(x).lock()`:
        // take the call's name instead.
        if j > 0 && (b[j - 1] == b')' || b[j - 1] == b']') {
            let close = j - 1;
            let mut depth = 0usize;
            let mut k = close;
            loop {
                match b[k] {
                    b')' | b']' => depth += 1,
                    b'(' | b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            j = k;
            w = j;
            while w > 0 && items::is_ident(b[w - 1]) {
                w -= 1;
            }
        }
        if w == j {
            return None;
        }
    }
    Some(body[w..j].to_string())
}

/// Classifies an acquisition as a `let`-bound guard or a
/// statement-temporary. `tok_off` is the token start, `open` the `(`
/// of the acquiring call.
fn classify_binding(body: &str, tok_off: usize, open: usize) -> GuardKind {
    let b = body.as_bytes();
    // Statement head: everything since the last `;`, `{` or `}`.
    let mut s = tok_off;
    while s > 0 && !matches!(b[s - 1], b';' | b'{' | b'}') {
        s -= 1;
    }
    let head = body[s..tok_off].trim_start();
    let stmt_end = body[tok_off..]
        .find([';', '{', '}'])
        .map_or(body.len(), |k| tok_off + k);

    let mut words = head.split_whitespace();
    let binds = match words.next() {
        Some("let") => {
            let mut var = words.next().unwrap_or("");
            if var == "mut" {
                var = words.next().unwrap_or("");
            }
            let var: String = var
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            (!var.is_empty() && var != "_").then_some(var)
        }
        _ => None,
    };
    let Some(var) = binds else {
        return GuardKind::Temp { stmt_end };
    };

    // Adapter tail: after the acquiring call, only poisoned-lock
    // adapters and `?` may follow for the binding to hold the guard —
    // anything else (`.take()`, `.clone()`, `[`) binds a derived value.
    let mut j = match_close(body, open);
    loop {
        while j < b.len() && (b[j] == b' ' || b[j] == b'\n' || b[j] == b'\t') {
            j += 1;
        }
        match b.get(j) {
            Some(b';') => return GuardKind::Let(var),
            Some(b'?') => j += 1,
            Some(b'.') => {
                let name = items::read_ident(body, j + 1);
                if matches!(name, "unwrap" | "expect" | "unwrap_or_else") {
                    j = match_close(body, j + 1 + name.len());
                } else {
                    return GuardKind::Temp { stmt_end };
                }
            }
            _ => return GuardKind::Temp { stmt_end },
        }
    }
}

/// Byte offset just past the `)` matching the `(` at `open` (or past
/// `open` when there is no paren there).
fn match_close(body: &str, open: usize) -> usize {
    let b = body.as_bytes();
    if open >= b.len() || b[open] != b'(' {
        return open;
    }
    let mut depth = 0usize;
    for (j, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    b.len()
}

/// C2 — flags lock-site pairs acquired in opposite orders anywhere in
/// the workspace, at the first occurrence of each direction.
fn check_c2(order: &[OrderObs], out: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for o in order {
        seen.insert((o.held.clone(), o.acquired.clone()));
    }
    let mut flagged: BTreeSet<(String, String)> = BTreeSet::new();
    for o in order {
        let fwd = (o.held.clone(), o.acquired.clone());
        let rev = (o.acquired.clone(), o.held.clone());
        if !seen.contains(&rev) || flagged.contains(&fwd) {
            continue;
        }
        flagged.insert(fwd);
        // First occurrence of the opposite direction, for the message.
        let opposite = order
            .iter()
            .filter(|x| x.held == o.acquired && x.acquired == o.held)
            .min_by_key(|x| (&x.rel, x.line));
        let cite = opposite.map_or(String::new(), |x| {
            format!(" (opposite order at {}:{})", x.rel, x.line)
        });
        out.push(Diagnostic {
            rule: "C2",
            rel: o.rel.clone(),
            line: o.line,
            message: format!(
                "lock `{}` acquired while `{}` is held, but the workspace also acquires them in \
                 the opposite order{cite}; pick one global acquisition order to rule out deadlock",
                o.acquired, o.held
            ),
        });
    }
}

/// C3 — panic reachability from S2's panic-free files through the call
/// graph, to the configured depth.
fn check_c3(ws: &Workspace, g: &Graph, out: &mut Vec<Diagnostic>) {
    let in_s2 = |rel: &str| ws.config.engine_paths.iter().any(|p| p == rel);
    let allowed = |qname: &str| ws.config.c3_allow_fns.iter().any(|a| a == qname);
    let depth_limit = ws.config.c3_depth.max(1);
    for (si, sym) in g.symbols.iter().enumerate() {
        if !in_s2(&sym.item.rel) {
            continue;
        }
        let mut reported: BTreeSet<(usize, String)> = BTreeSet::new();
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        // (symbol, depth, call line in the root, via-chain). The graph
        // has no edge for an ambiguous method name (trait dispatch),
        // which would flag every impl's internal asserts.
        let mut frontier: Vec<(usize, usize, usize, Vec<String>)> = g
            .callees(si)
            .map(|e| (e.to, 1usize, e.line, Vec::new()))
            .collect();
        while let Some((ti, depth, line, via)) = frontier.pop() {
            let t = &g.symbols[ti];
            if allowed(&t.item.qname) || in_s2(&t.item.rel) {
                continue; // proven total, or itself under S2+C3 as a root
            }
            if let Some(fact) = t.panics.first() {
                if reported.insert((line, t.item.qname.clone())) {
                    let chain = if via.is_empty() {
                        String::new()
                    } else {
                        format!(" (via `{}`)", via.join("` → `"))
                    };
                    out.push(Diagnostic {
                        rule: "C3",
                        rel: sym.item.rel.clone(),
                        line,
                        message: format!(
                            "panic-free path calls `{}`{chain}, which can panic ({} at {}:{}); \
                             return a typed error, or prove it total and allowlist it in \
                             [rules.C3] allow_fns",
                            t.item.qname, fact.what, t.item.rel, fact.line
                        ),
                    });
                }
            }
            if depth < depth_limit && visited.insert(ti) {
                let mut via2 = via.clone();
                via2.push(t.item.qname.clone());
                for e in g.callees(ti) {
                    frontier.push((e.to, depth + 1, line, via2.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_classification() {
        let body = "let g = m.lock().unwrap_or_else(|e| e.into_inner());\nio();";
        let acqs = find_acquisitions(body, 0, &[]);
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].site, "m");
        assert!(matches!(acqs[0].kind, GuardKind::Let(ref v) if v == "g"));

        // Chaining past the guard binds a derived value, not the guard.
        let body = "let taken = slot.lock().unwrap().take();";
        let acqs = find_acquisitions(body, 0, &[]);
        assert!(matches!(acqs[0].kind, GuardKind::Temp { .. }), "{acqs:?}");

        // `let _ = guard` drops immediately.
        let body = "let _ = m.lock();";
        let acqs = find_acquisitions(body, 0, &[]);
        assert!(matches!(acqs[0].kind, GuardKind::Temp { .. }));
    }

    #[test]
    fn rwlock_needs_empty_parens() {
        let acqs = find_acquisitions("let g = STORE.read();\nsock.read(&mut buf);", 0, &[]);
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].site, "STORE");
    }

    #[test]
    fn helper_acquisitions_take_the_argument_site() {
        let acqs = find_acquisitions(
            "let mut shard = lock(self.shard_for(&group));\nlet g = self.lock(shard);",
            0,
            &["lock".to_string()],
        );
        assert_eq!(acqs.len(), 2);
        assert_eq!(acqs[0].site, "shard_for");
        assert_eq!(acqs[1].site, "shard");
        assert!(matches!(acqs[0].kind, GuardKind::Let(ref v) if v == "shard"));
    }

    #[test]
    fn fn_definitions_are_not_helper_calls() {
        let acqs = find_acquisitions(
            "fn lock(m: &M) -> G { m.inner.lock() }",
            0,
            &["lock".into()],
        );
        // Only the `.lock()` inside the body counts, not `fn lock(`.
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].site, "inner");
    }

    #[test]
    fn receiver_chains_name_the_last_segment() {
        assert_eq!(
            receiver_ident("self.state.lock()", 10),
            Some("state".to_string())
        );
        let body = "self.shard_for(k).lock()";
        assert_eq!(receiver_ident(body, 17), Some("shard_for".to_string()));
    }
}
