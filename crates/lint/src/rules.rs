//! The named project invariants, one function per rule.
//!
//! Every rule takes a [`ScannedFile`] (comments/strings already blanked,
//! test regions marked) and returns [`Violation`]s. Scoping — which paths
//! a rule polices, which it allowlists — lives in [`crate::config`], so
//! the rule bodies stay pure pattern logic.
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no wall-clock reads outside the bench/hotpath allowlist |
//! | D2   | no unordered `HashMap`/`HashSet` iteration in digest crates |
//! | D3   | no ambient (entropy-seeded) randomness anywhere |
//! | R1   | no panic paths in daemon/transport non-test code |

use crate::scan::{find_word, ScannedFile};

/// A single rule hit, reported as `rule path:line snippet`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Rule id: `D1`, `D2`, `D3`, `R1`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number (best effort for structural rules).
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human explanation of what to do instead.
    pub message: String,
}

impl Violation {
    fn at(rule: &'static str, file: &ScannedFile, line: usize, message: String) -> Violation {
        let snippet = file
            .lines
            .get(line.saturating_sub(1))
            .map(|l| l.raw.trim().to_string())
            .unwrap_or_default();
        Violation {
            rule,
            path: file.path.clone(),
            line,
            snippet,
            message,
        }
    }
}

/// D1 — no wall-clock. `Instant::now` / `SystemTime` read real time, which
/// differs across runs and machines; everything in the engine must take
/// time from the netsim virtual clock. Escape: `// lint: wall-clock-ok(reason)`.
pub fn d1_wall_clock(file: &ScannedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let hit = !find_word(&line.code, "Instant::now").is_empty()
            || !find_word(&line.code, "SystemTime").is_empty();
        if hit && !file.excused(line.number, "wall-clock-ok") {
            out.push(Violation::at(
                "D1",
                file,
                line.number,
                "wall-clock read; use netsim virtual time, or annotate \
                 `// lint: wall-clock-ok(reason)` for bench-only metering"
                    .to_string(),
            ));
        }
    }
    out
}

/// Methods that surface a map/set's nondeterministic iteration order.
const UNORDERED_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// D2 — no unordered iteration in digest-bearing crates. `HashMap` /
/// `HashSet` iteration order is randomized per process; iterating one
/// into a digest, a fee calculation, or an event log makes the result
/// run-dependent. The rule tracks identifiers bound or typed as hash
/// collections and flags iteration over them unless the result is sorted
/// within two lines or the site carries `// lint: ordered-ok(reason)`.
pub fn d2_unordered_iteration(file: &ScannedFile) -> Vec<Violation> {
    let idents = hash_collection_idents(file);
    if idents.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut flagged = false;
        for method in UNORDERED_METHODS {
            for at in occurrences(&line.code, method) {
                if let Some(ident) = ident_before_dot(&line.code, at) {
                    if idents.iter().any(|known| known == ident) {
                        flagged = true;
                    }
                }
            }
        }
        if !flagged {
            if let Some(ident) = for_in_target(&line.code) {
                if idents.iter().any(|known| known == ident) {
                    flagged = true;
                }
            }
        }
        if flagged && !file.excused(line.number, "ordered-ok") && !sorted_nearby(file, i) {
            out.push(Violation::at(
                "D2",
                file,
                line.number,
                "unordered HashMap/HashSet iteration in a digest-bearing crate; \
                 sort the items, use a BTreeMap/BTreeSet, or annotate \
                 `// lint: ordered-ok(reason)`"
                    .to_string(),
            ));
        }
    }
    out
}

/// Collects identifiers declared or typed as `HashMap`/`HashSet` in this
/// file: `let [mut] name = HashMap::…`, `name: HashMap<…>` (fields,
/// params, typed lets).
fn hash_collection_idents(file: &ScannedFile) -> Vec<String> {
    let mut idents = Vec::new();
    for line in &file.lines {
        let code = &line.code;
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        // `let [mut] name = HashMap::new()` / `HashSet::with_capacity(…)`
        if let Some(let_at) = code.find("let ") {
            let after = code[let_at + 4..].trim_start().trim_start_matches("mut ");
            let name: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty()
                && (code.contains("HashMap::")
                    || code.contains("HashSet::")
                    || code.contains(": HashMap<")
                    || code.contains(": HashSet<"))
            {
                idents.push(name);
            }
        }
        // `name: HashMap<…>` — struct fields and fn params, including
        // reference types (`name: &HashMap<…>`, `name: &mut HashMap<…>`).
        for marker in ["HashMap<", "HashSet<"] {
            for at in occurrences(code, marker) {
                // Walk back over `&`/`mut` and the `:` to the identifier.
                let mut head = code[..at].trim_end();
                loop {
                    let stripped = head
                        .strip_suffix('&')
                        .or_else(|| head.strip_suffix("mut"))
                        .map(str::trim_end);
                    match stripped {
                        Some(s) => head = s,
                        None => break,
                    }
                }
                let head = head.strip_suffix(':').unwrap_or(head).trim_end();
                let name: String = head
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                if !name.is_empty() && !name.chars().next().unwrap().is_ascii_digit() {
                    idents.push(name);
                }
            }
        }
    }
    idents.sort();
    idents.dedup();
    // Type names themselves are not bindings.
    idents.retain(|n| n != "HashMap" && n != "HashSet");
    idents
}

/// Byte offsets of every occurrence of `needle` in `haystack`.
fn occurrences(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// The identifier immediately before the `.` at byte offset `dot_at`
/// (the last path segment: `self.accounts.iter()` → `accounts`).
fn ident_before_dot(code: &str, dot_at: usize) -> Option<&str> {
    let head = &code[..dot_at];
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|p| p + 1)
        .unwrap_or(0);
    let ident = &head[start..];
    (!ident.is_empty()).then_some(ident)
}

/// For `for x in <expr> {`, the trailing identifier of `<expr>`
/// (`for (k, v) in &self.accounts {` → `accounts`).
fn for_in_target(code: &str) -> Option<&str> {
    let for_at = find_word(code, "for ").into_iter().next()?;
    let in_at = code[for_at..].find(" in ")? + for_at + 4;
    let expr = code[in_at..]
        .trim()
        .trim_end_matches(|c: char| c == '{' || c == '}' || c.is_whitespace());
    let start = expr
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|p| p + 1)
        .unwrap_or(0);
    let ident = &expr[start..];
    (!ident.is_empty()).then_some(ident)
}

/// True when the flagged line or the two lines after it impose an order
/// (`.sort…` call or collection into a BTree type).
fn sorted_nearby(file: &ScannedFile, index: usize) -> bool {
    file.lines[index..].iter().take(3).any(|l| {
        l.code.contains(".sort") || l.code.contains("BTreeMap") || l.code.contains("BTreeSet")
    })
}

/// D3 — no ambient randomness. Entropy-seeded RNGs make runs
/// unreproducible; every seed must flow from config so a run can be
/// replayed bit-for-bit. Escape: `// lint: ambient-rand-ok(reason)`.
pub fn d3_ambient_randomness(file: &ScannedFile) -> Vec<Violation> {
    const PATTERNS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];
    let mut out = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let hit = PATTERNS
            .iter()
            .any(|p| !find_word(&line.code, p).is_empty());
        if hit && !file.excused(line.number, "ambient-rand-ok") {
            out.push(Violation::at(
                "D3",
                file,
                line.number,
                "ambient randomness; seed a deterministic RNG from config \
                 so runs replay bit-for-bit, or annotate \
                 `// lint: ambient-rand-ok(reason)`"
                    .to_string(),
            ));
        }
    }
    out
}

/// R1 — no panic paths in the daemon. A stalled or malicious client must
/// never take down a worker thread; daemon and transport code propagates
/// typed errors instead. Escape: `// lint: panic-ok(reason)`.
pub fn r1_no_panic(file: &ScannedFile) -> Vec<Violation> {
    const PATTERNS: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    let mut out = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let hit = PATTERNS.iter().any(|p| line.code.contains(p));
        if hit && !file.excused(line.number, "panic-ok") {
            out.push(Violation::at(
                "R1",
                file,
                line.number,
                "panic path in daemon/transport code; propagate a typed \
                 error (FrameError/io::Error) or recover, or annotate \
                 `// lint: panic-ok(reason)`"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScannedFile;

    fn scan(src: &str) -> ScannedFile {
        ScannedFile::scan("crates/x/src/lib.rs", src, false)
    }

    #[test]
    fn d1_flags_wall_clock_and_honors_escape() {
        let f = scan(
            "let t = std::time::Instant::now();\n\
             let ok = Instant::now(); // lint: wall-clock-ok(bench leg)\n",
        );
        let v = d1_wall_clock(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn d2_tracks_bindings_and_sorted_suppression() {
        let f = scan(
            "use std::collections::HashMap;\n\
             let mut accounts = HashMap::new();\n\
             let mut rows: Vec<_> = accounts.iter().collect();\n\
             rows.sort();\n\
             let sum: u64 = accounts.values().sum(); // lint: ordered-ok(commutative)\n\
             let vec_ok = vec![1].iter().count();\n\
             for (k, v) in &accounts {}\n",
        );
        let v = d2_unordered_iteration(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 7);
    }

    #[test]
    fn d2_sees_reference_typed_params() {
        let f = scan(
            "pub fn digest(m: &HashMap<u64, u64>) -> u64 {\n\
             for (k, v) in m.iter() { let _ = k ^ v; }\n\
             0\n\
             }\n",
        );
        let v = d2_unordered_iteration(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn d2_sees_struct_fields() {
        let f = scan(
            "struct S { table: HashMap<u64, u64> }\n\
             impl S { fn go(&self) { for k in self.table.keys() {} } }\n",
        );
        let v = d2_unordered_iteration(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn d3_flags_entropy_rng() {
        let f = scan("let mut rng = rand::thread_rng();\n");
        assert_eq!(d3_ambient_randomness(&f).len(), 1);
    }

    #[test]
    fn r1_flags_panics_but_not_unwrap_or() {
        let f = scan(
            "let a = x.unwrap();\n\
             let b = x.unwrap_or_else(|p| p.into_inner());\n\
             let c = x.unwrap_or_default();\n\
             let d = x.expect(\"boom\");\n",
        );
        let v = r1_no_panic(&f);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 4);
    }

    #[test]
    fn rules_skip_test_regions() {
        let f = scan(
            "#[cfg(test)]\nmod tests {\n    fn t() { let a = x.unwrap(); let t = Instant::now(); }\n}\n",
        );
        assert!(r1_no_panic(&f).is_empty());
        assert!(d1_wall_clock(&f).is_empty());
    }
}
