//! Cross-crate symbol index and call graph.
//!
//! Built once per workspace: every non-test `fn` item becomes a
//! [`Symbol`] carrying per-function facts (panic sites, blocking-call
//! sites), and a syntactic call-edge extractor links call sites to the
//! workspace functions they reach, nearest scope first (same file, then
//! same crate, then any). A call site that still has several candidates
//! (possible trait dispatch) adds no edge: the concurrency rules built
//! on top (C1, C3) would otherwise flag every impl's internals. Names
//! that are ubiquitous on std types (`clone`, `len`, `get`, …) are
//! excluded from method resolution to keep the noise floor near zero.
//!
//! Everything is deterministically ordered: symbols sort by
//! `(qname, path, line)`, edges by `(from, line, to)`.

use std::collections::BTreeMap;

use crate::items::{self, extract_fns, FnItem};
use crate::workspace::Workspace;

/// One fact about a function body: something at `line` that panics or
/// blocks, labelled with a short `what`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fact {
    /// 1-based line in the defining file.
    pub line: usize,
    /// Short label (`unwrap`, `indexing`, `thread::sleep`, …).
    pub what: String,
}

/// A workspace function plus its extracted facts.
#[derive(Clone, Debug)]
pub struct Symbol {
    /// The underlying item.
    pub item: FnItem,
    /// Panic sites in the body (S2's token family plus indexing).
    pub panics: Vec<Fact>,
    /// Blocking operations in the body (socket/file IO, channel
    /// receives, thread join/sleep).
    pub blocking: Vec<Fact>,
}

/// One call edge, from a call site that resolved to exactly one
/// workspace symbol.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Caller index into [`Graph::symbols`].
    pub from: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
    /// Callee index into [`Graph::symbols`].
    pub to: usize,
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// All non-test workspace functions, sorted by `(qname, path, line)`.
    pub symbols: Vec<Symbol>,
    /// Resolved call edges, sorted by `(from, line, to)` and deduped.
    pub edges: Vec<Edge>,
}

impl Graph {
    /// Outgoing edges of symbol `from`.
    pub fn callees(&self, from: usize) -> impl Iterator<Item = &Edge> {
        // Edges are sorted by `from`; a filter keeps the API simple
        // (workspace graphs are small).
        self.edges.iter().filter(move |e| e.from == from)
    }

    /// Index of the symbol whose qualified name is exactly `qname`.
    pub fn by_qname(&self, qname: &str) -> Option<usize> {
        self.symbols.iter().position(|s| s.item.qname == qname)
    }
}

/// Blocking-operation tokens. Tokens ending in `()` require the empty
/// argument list — that separates `JoinHandle::join()` from
/// `slice.join(", ")` and `RwLock::read()` from `io::Read::read(buf)`.
/// Condvar waits are deliberately absent: they release the guard.
pub const BLOCKING_TOKENS: &[(&str, &str)] = &[
    (".write_all(", "socket/file write"),
    (".write_fmt(", "socket/file write"),
    (".read_exact(", "socket/file read"),
    (".read_to_end(", "socket/file read"),
    (".read_to_string(", "socket/file read"),
    (".flush()", "stream flush"),
    (".recv()", "channel receive"),
    (".recv_timeout(", "channel receive"),
    (".join()", "thread join"),
    (".accept()", "socket accept"),
    ("thread::sleep(", "thread sleep"),
    ("TcpStream::connect(", "socket connect"),
    ("File::open(", "file open"),
    ("File::create(", "file create"),
    ("fs::read(", "file read"),
    ("fs::read_to_string(", "file read"),
    ("fs::read_dir(", "directory read"),
    ("fs::write(", "file write"),
    ("fs::copy(", "file copy"),
    ("fs::rename(", "file rename"),
    ("fs::remove_file(", "file remove"),
    ("fs::create_dir_all(", "directory create"),
];

/// Panic-site tokens (rule S2's family). Indexing is detected
/// separately in [`panic_facts`].
pub const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap(", "unwrap"),
    (".expect(", "expect"),
    ("panic!", "panic!"),
    ("unreachable!", "unreachable!"),
    ("todo!", "todo!"),
    ("unimplemented!", "unimplemented!"),
    ("assert!", "assert!"),
    ("assert_eq!", "assert_eq!"),
    ("assert_ne!", "assert_ne!"),
];

/// Finds `token` occurrences in `text` at identifier boundaries,
/// returning byte offsets. Same boundary discipline as the token
/// rules: a leading `.` or trailing `(`/`!`/`)` self-delimits.
pub(crate) fn find_tokens(text: &str, token: &str) -> Vec<usize> {
    let b = text.as_bytes();
    let tb = token.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(at) = text[from..].find(token) {
        let start = from + at;
        let end = start + token.len();
        let self_prefixed = !items::is_ident(tb[0]);
        let left_ok = self_prefixed || start == 0 || !items::is_ident(b[start - 1]);
        let self_delimited = matches!(tb[tb.len() - 1], b'(' | b'!' | b')');
        let right_ok = self_delimited || end >= b.len() || !items::is_ident(b[end]);
        if left_ok && right_ok {
            hits.push(start);
        }
        from = start + 1;
    }
    hits
}

/// Panic facts of a function body (`body` is the slice between the
/// braces; `base` its byte offset in the file; `lines` the file index).
fn panic_facts(body: &str, base: usize, lines: &LineIndex) -> Vec<Fact> {
    let mut out = Vec::new();
    for (tok, what) in PANIC_TOKENS {
        for off in find_tokens(body, tok) {
            out.push(Fact {
                line: lines.line_of(base + off),
                what: (*what).to_string(),
            });
        }
    }
    // Indexing: `expr[` — a `[` straight after an identifier character
    // or a closing bracket. Attributes (`#[`), array types/literals
    // (`[u8; 4]`) and generic positions are not preceded by those.
    let b = body.as_bytes();
    for i in 1..b.len() {
        if b[i] == b'[' && (items::is_ident(b[i - 1]) || b[i - 1] == b')' || b[i - 1] == b']') {
            out.push(Fact {
                line: lines.line_of(base + i),
                what: "indexing".to_string(),
            });
        }
    }
    out.sort_by(|a, b| (a.line, &a.what).cmp(&(b.line, &b.what)));
    out.dedup();
    out
}

/// Blocking facts of a function body.
fn blocking_facts(body: &str, base: usize, lines: &LineIndex) -> Vec<Fact> {
    let mut out = Vec::new();
    for (tok, what) in BLOCKING_TOKENS {
        for off in find_tokens(body, tok) {
            out.push(Fact {
                line: lines.line_of(base + off),
                what: (*what).to_string(),
            });
        }
    }
    out.sort_by(|a, b| (a.line, &a.what).cmp(&(b.line, &b.what)));
    out.dedup();
    out
}

/// Byte-offset → 1-based line lookup for one file.
pub(crate) struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    pub(crate) fn new(text: &str) -> LineIndex {
        let mut starts = vec![0usize];
        for (i, c) in text.bytes().enumerate() {
            if c == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    pub(crate) fn line_of(&self, off: usize) -> usize {
        self.starts.partition_point(|&s| s <= off)
    }
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CallKind {
    /// `recv.name(...)` — resolved against workspace methods.
    Method(String),
    /// `a::b::name(...)` — resolved by qualified-name suffix match.
    Path(Vec<String>),
    /// `name(...)` — resolved against free functions, nearest first.
    Bare(String),
}

/// One syntactic call site inside a function body.
#[derive(Clone, Debug)]
pub(crate) struct CallSite {
    /// Byte offset of the callee name in the file.
    pub off: usize,
    pub kind: CallKind,
}

/// Words that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "move", "fn", "let", "else", "break",
    "continue", "unsafe", "as", "where", "impl", "dyn", "ref", "mut", "use", "pub", "true",
    "false", "type", "struct", "enum", "union", "static", "const", "trait", "mod", "box", "await",
    "async", "yield",
];

/// Method names so common on std types that resolving them against
/// workspace methods would drown the graph in false edges.
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "bytes",
    "ceil",
    "chain",
    "char_indices",
    "chars",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "concat",
    "connect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "elapsed",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "exists",
    "expect",
    "extend",
    "extend_from_slice",
    "extension",
    "file_name",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "accept",
    "flush",
    "into",
    "into_iter",
    "is_dir",
    "is_empty",
    "is_err",
    "is_file",
    "is_finite",
    "is_nan",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "load",
    "lock",
    "ln",
    "map",
    "map_err",
    "max",
    "min",
    "ne",
    "next",
    "notify_all",
    "notify_one",
    "nth",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "peek",
    "peekable",
    "pop",
    "position",
    "pow",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_timeout",
    "rem_euclid",
    "remove",
    "repeat",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "rfind",
    "round",
    "saturating_add",
    "saturating_sub",
    "send",
    "skip",
    "skip_while",
    "sleep",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "spawn",
    "split",
    "split_once",
    "split_whitespace",
    "splitn",
    "sqrt",
    "starts_with",
    "step_by",
    "store",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "swap",
    "take",
    "take_while",
    "then",
    "then_some",
    "then_with",
    "to_le_bytes",
    "to_be_bytes",
    "to_owned",
    "to_path_buf",
    "to_string",
    "to_string_lossy",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "try_lock",
    "try_recv",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "wait",
    "wait_timeout",
    "windows",
    "with_extension",
    "write",
    "write_all",
    "write_fmt",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "zip",
];

/// Extracts syntactic call sites from a body slice (`base` is the
/// slice's byte offset in the file).
pub(crate) fn extract_calls(body: &str, base: usize) -> Vec<CallSite> {
    let b = body.as_bytes();
    let mut out = Vec::new();
    for k in 1..b.len() {
        if b[k] != b'(' || b[k - 1] == b'!' {
            continue; // not a call head, or a macro invocation
        }
        // Read the callee identifier backwards.
        let mut s = k;
        while s > 0 && items::is_ident(b[s - 1]) {
            s -= 1;
        }
        if s == k || !items::is_ident_start(b[s]) {
            continue; // bare expression parens or a number
        }
        let name = &body[s..k];
        if KEYWORDS.contains(&name) {
            continue;
        }
        if s >= 1 && b[s - 1] == b'.' {
            out.push(CallSite {
                off: base + s,
                kind: CallKind::Method(name.to_string()),
            });
            continue;
        }
        if s >= 2 && &b[s - 2..s] == b"::" {
            // Walk the path backwards: `a::b::name`.
            let mut segs = vec![name.to_string()];
            let mut cur = s;
            while cur >= 2 && &b[cur - 2..cur] == b"::" {
                let mut t = cur - 2;
                while t > 0 && items::is_ident(b[t - 1]) {
                    t -= 1;
                }
                if t == cur - 2 || !items::is_ident_start(b[t]) {
                    break; // `<Foo as Trait>::name` — stop at the `>`
                }
                segs.insert(0, body[t..cur - 2].to_string());
                cur = t;
            }
            out.push(CallSite {
                off: base + s,
                kind: CallKind::Path(segs),
            });
            continue;
        }
        // `fn name(` is a definition, not a call.
        let mut t = s;
        while t > 0 && (b[t - 1] == b' ' || b[t - 1] == b'\n' || b[t - 1] == b'\t') {
            t -= 1;
        }
        let mut w = t;
        while w > 0 && items::is_ident(b[w - 1]) {
            w -= 1;
        }
        if &body[w..t] == "fn" {
            continue;
        }
        out.push(CallSite {
            off: base + s,
            kind: CallKind::Bare(name.to_string()),
        });
    }
    out
}

/// Builds the call graph for a loaded workspace. Test-path files and
/// `#[cfg(test)]` items are excluded — the graph models shipped code.
pub fn build(ws: &Workspace) -> Graph {
    let mut symbols: Vec<Symbol> = Vec::new();
    let mut line_index: BTreeMap<&str, LineIndex> = BTreeMap::new();
    for f in ws.files.iter().filter(|f| !f.is_test_path) {
        let lines = line_index
            .entry(f.rel.as_str())
            .or_insert_with(|| LineIndex::new(&f.text));
        for item in extract_fns(f) {
            if item.is_test {
                continue;
            }
            let body = item.body(&f.text);
            let base = item.body_start + 1;
            symbols.push(Symbol {
                panics: panic_facts(body, base, lines),
                blocking: blocking_facts(body, base, lines),
                item,
            });
        }
    }
    symbols.sort_by(|a, b| {
        (&a.item.qname, &a.item.rel, a.item.line).cmp(&(&b.item.qname, &b.item.rel, b.item.line))
    });

    // Name → symbol indices (post-sort, so ids are stable).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in symbols.iter().enumerate() {
        by_name.entry(s.item.name.as_str()).or_default().push(i);
    }

    let mut edges: Vec<Edge> = Vec::new();
    for (si, sym) in symbols.iter().enumerate() {
        let Some(f) = ws.file_by_rel(&sym.item.rel) else {
            continue;
        };
        let lines = &line_index[sym.item.rel.as_str()];
        let body = sym.item.body(&f.text);
        for call in extract_calls(body, sym.item.body_start + 1) {
            // Several candidates model possible trait dispatch, which
            // the rules do not follow: no edge.
            if let [to] = resolve(&call.kind, sym, &symbols, &by_name, ws)[..] {
                if to != si {
                    edges.push(Edge {
                        from: si,
                        line: lines.line_of(call.off),
                        to,
                    });
                }
            }
        }
    }
    edges.sort();
    edges.dedup();
    Graph { symbols, edges }
}

/// Resolves one call site to workspace symbol indices.
fn resolve(
    kind: &CallKind,
    caller: &Symbol,
    symbols: &[Symbol],
    by_name: &BTreeMap<&str, Vec<usize>>,
    ws: &Workspace,
) -> Vec<usize> {
    let named = |name: &str| by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
    match kind {
        CallKind::Method(name) => {
            if STD_METHODS.contains(&name.as_str()) {
                return vec![];
            }
            let methods: Vec<usize> = named(name)
                .iter()
                .copied()
                .filter(|&i| symbols[i].item.owner.is_some())
                .collect();
            // Nearest scope wins, mirroring bare calls: a method defined
            // in the caller's file (or crate) shadows same-named methods
            // elsewhere; only without a local candidate do all impls
            // remain (possible trait dispatch, which adds no edge).
            for pick in [
                methods
                    .iter()
                    .copied()
                    .filter(|&i| symbols[i].item.rel == caller.item.rel)
                    .collect::<Vec<_>>(),
                methods
                    .iter()
                    .copied()
                    .filter(|&i| symbols[i].item.krate == caller.item.krate)
                    .collect::<Vec<_>>(),
                methods.clone(),
            ] {
                if !pick.is_empty() {
                    return pick;
                }
            }
            vec![]
        }
        CallKind::Bare(name) => {
            let frees: Vec<usize> = named(name)
                .iter()
                .copied()
                .filter(|&i| symbols[i].item.owner.is_none())
                .collect();
            // Nearest scope wins: same file, then same crate, then any.
            for pick in [
                frees
                    .iter()
                    .copied()
                    .filter(|&i| symbols[i].item.rel == caller.item.rel)
                    .collect::<Vec<_>>(),
                frees
                    .iter()
                    .copied()
                    .filter(|&i| symbols[i].item.krate == caller.item.krate)
                    .collect::<Vec<_>>(),
                frees.clone(),
            ] {
                if !pick.is_empty() {
                    return pick;
                }
            }
            vec![]
        }
        CallKind::Path(segs) => {
            let mut segs: Vec<String> = segs.clone();
            // Normalize the leading segment to graph conventions.
            match segs.first().map(String::as_str) {
                Some("crate") => {
                    segs[0] = items::module_path(&caller.item.rel)
                        .first()
                        .cloned()
                        .unwrap_or_default();
                }
                Some("self") | Some("super") => {
                    segs.remove(0);
                }
                Some("Self") => match &caller.item.owner {
                    Some(owner) => segs[0] = owner.clone(),
                    None => {
                        segs.remove(0);
                    }
                },
                Some(first) => {
                    // `fair_tiles::…` → crate dir `tiles`.
                    if let Some(short) = first.strip_prefix("fair_") {
                        if ws.members.iter().any(|m| m == short) {
                            segs[0] = short.to_string();
                        }
                    }
                }
                None => {}
            }
            if segs.is_empty() {
                return vec![];
            }
            let last = segs.last().cloned().unwrap_or_default();
            named(&last)
                .iter()
                .copied()
                .filter(|&i| qname_ends_with(&symbols[i].item.qname, &segs))
                .collect()
        }
    }
}

/// Whether `qname`'s `::`-segments end with `segs`.
fn qname_ends_with(qname: &str, segs: &[String]) -> bool {
    let q: Vec<&str> = qname.split("::").collect();
    segs.len() <= q.len()
        && q[q.len() - segs.len()..]
            .iter()
            .zip(segs)
            .all(|(a, b)| *a == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_kinds_are_classified() {
        let calls = extract_calls(
            "helper(); x.method(1); a::b::path_fn(); mac!(no); (x)(y);",
            0,
        );
        let kinds: Vec<&CallKind> = calls.iter().map(|c| &c.kind).collect();
        assert_eq!(kinds.len(), 3, "{calls:?}");
        assert_eq!(*kinds[0], CallKind::Bare("helper".into()));
        assert_eq!(*kinds[1], CallKind::Method("method".into()));
        assert_eq!(
            *kinds[2],
            CallKind::Path(vec!["a".into(), "b".into(), "path_fn".into()])
        );
    }

    #[test]
    fn panic_and_blocking_facts() {
        let lines = LineIndex::new("a\nb\nc\nd\n");
        let p = panic_facts("x.unwrap();\nv[0];\npanic!();\n#[cfg(x)]\n", 0, &lines);
        let whats: Vec<&str> = p.iter().map(|f| f.what.as_str()).collect();
        assert_eq!(whats, ["unwrap", "indexing", "panic!"]);
        let b = blocking_facts("s.write_all(b);\nh.join();\nparts.join(x);\n", 0, &lines);
        let whats: Vec<&str> = b.iter().map(|f| f.what.as_str()).collect();
        // `.join()` needs the empty argument list — `parts.join(x)` is
        // string/slice join, not a thread join.
        assert_eq!(whats, ["socket/file write", "thread join"]);
    }

    #[test]
    fn line_index_maps_offsets() {
        let idx = LineIndex::new("ab\ncd\nef");
        assert_eq!(idx.line_of(0), 1);
        assert_eq!(idx.line_of(2), 1);
        assert_eq!(idx.line_of(3), 2);
        assert_eq!(idx.line_of(7), 3);
    }

    #[test]
    fn qname_suffix_matching_is_segment_aligned() {
        assert!(qname_ends_with(
            "serve::cache::ShardedCache::get_or_compute",
            &["ShardedCache".into(), "get_or_compute".into()]
        ));
        assert!(!qname_ends_with(
            "serve::cache::ShardedCache::get_or_compute",
            &["Cache".into(), "get_or_compute".into()]
        ));
    }

    #[test]
    fn graph_over_a_tiny_workspace_resolves_cross_crate_calls() {
        let dir = std::env::temp_dir().join("fairlint_graph_test_ws");
        let _ = std::fs::remove_dir_all(&dir);
        for (rel, src) in [
            ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
            ("crates/a/Cargo.toml", "[package]\nname = \"a\"\n"),
            (
                "crates/a/src/lib.rs",
                "pub fn risky(x: &[u8]) -> u8 { x[0] }\npub fn caller() { crate::risky(&[]); }\n",
            ),
            ("crates/b/Cargo.toml", "[package]\nname = \"b\"\n"),
            (
                "crates/b/src/lib.rs",
                "pub fn cross() {\n    fair_a::risky(&[]);\n    a::risky(&[]);\n}\n",
            ),
        ] {
            let p = dir.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, src).unwrap();
        }
        let ws = Workspace::load(&dir).expect("loads");
        let g = build(&ws);
        let risky = g.by_qname("a::risky").expect("a::risky indexed");
        assert_eq!(g.symbols[risky].panics[0].what, "indexing");
        let caller = g.by_qname("a::caller").unwrap();
        let cross = g.by_qname("b::cross").unwrap();
        assert!(g.callees(caller).any(|e| e.to == risky), "crate:: resolves");
        // Both the `fair_a::` alias and the bare dir name resolve.
        assert_eq!(g.callees(cross).filter(|e| e.to == risky).count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
