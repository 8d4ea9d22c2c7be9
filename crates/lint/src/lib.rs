//! Repo-specific concurrency/correctness lints for the ATSQ workspace.
//!
//! `cargo run -p atsq-lint` scans every `crates/*/src/**/*.rs` file
//! (except this crate's own sources) with a line-oriented,
//! brace-tracking scanner — no syn, no external deps — and enforces
//! six rules this codebase has been bitten by or is structured
//! around:
//!
//! 1. **`lock-hold`** — a `let`-bound lock guard (`.lock()` /
//!    `.read()` / `.write()` with empty argument lists) whose scope
//!    acquires a *second* lock or performs blocking I/O before the
//!    guard drops. Nested acquisition is how lock-order inversions are
//!    born (the runtime checker in `shims/parking_lot` catches the
//!    dynamic cycle; this catches the static shape), and I/O under a
//!    lock turns a cheap critical section into a convoy.
//! 2. **`atomics-ordering`** — every `Ordering::…` use must carry an
//!    `// ordering:` justification comment on the same line or in the
//!    lines just above (one comment covers a contiguous cluster).
//!    `Ordering::SeqCst` is denied outright: a justified SeqCst goes
//!    in the allowlist, so each one is a recorded decision.
//! 3. **`panic-hot-path`** — `unwrap()` / `expect(…)` / `panic!` are
//!    denied in the request hot path (server, service, wire, queue,
//!    the GAT index's owner routing and part verification). An
//!    `.expect(…)` whose message
//!    contains `invariant` is allowed — it documents a structurally
//!    impossible failure rather than an error path.
//! 4. **`atomic-snapshot-coherence`** — a function that loads two or
//!    more distinct atomics is publishing a multi-value snapshot that
//!    can tear; it must say why that is sound in a `coherence:`
//!    comment (inside the function or immediately above it).
//! 5. **`condvar-wait-must-loop`** — every blocking
//!    `Condvar::wait(&mut guard)` must sit inside a `while`/`loop`
//!    that re-checks its predicate. A wakeup is a hint, not a proof:
//!    `notify_all` wakes every waiter, the mutex is re-acquired only
//!    after rivals may have consumed the state, and spurious wakeups
//!    are legal (`atsq-model` injects them deliberately to break
//!    wait-once callers).
//! 6. **`unsafe-needs-safety-comment`** — every `unsafe` keyword
//!    (block, fn, impl) needs a `// SAFETY:` comment on the same line
//!    or just above it, recording the proof obligation at the point
//!    where it is incurred.
//!
//! Findings can be waived in a committed `lint.allow` file at the scan
//! root, one entry per line: `rule|file|needle|reason`. `file` is a
//! suffix of the repo-relative path, `needle` must appear verbatim in
//! the flagged line, and `reason` is the recorded justification.
//! Entries that match nothing are **stale** and fail the run — the
//! allowlist can only shrink ahead of the code, never trail it.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`lock-hold`, `atomics-ordering`, …).
    pub rule: &'static str,
    /// Path relative to the scan root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// One `rule|file|needle|reason` waiver.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule the waiver applies to.
    pub rule: String,
    /// Path suffix the waiver applies to.
    pub file: String,
    /// Substring that must appear in the flagged source line.
    pub needle: String,
    /// Recorded justification (required, never empty).
    pub reason: String,
    /// Line in `lint.allow`, for stale-entry reporting.
    pub line: usize,
}

/// Parsed allowlist plus per-entry usage tracking.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses `lint.allow` text. Lines starting with `#` and blank
    /// lines are ignored; anything else must have exactly four
    /// `|`-separated fields with a non-empty reason.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.splitn(4, '|').collect();
            if parts.len() != 4 || parts[3].trim().is_empty() {
                return Err(format!(
                    "lint.allow:{}: expected `rule|file|needle|reason` with a non-empty reason",
                    i + 1
                ));
            }
            entries.push(AllowEntry {
                rule: parts[0].trim().to_string(),
                file: parts[1].trim().to_string(),
                needle: parts[2].to_string(),
                reason: parts[3].trim().to_string(),
                line: i + 1,
            });
        }
        Ok(Allowlist { entries })
    }

    /// The parsed entries.
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }
}

/// Outcome of one scan: surviving findings plus stale waivers.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any allowlist entry.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched no finding.
    pub stale_allows: Vec<AllowEntry>,
    /// Files scanned (for `-v` style reporting and sanity tests).
    pub files_scanned: usize,
}

impl Report {
    /// Whether the scan should fail the build.
    pub fn is_failure(&self) -> bool {
        !self.findings.is_empty() || !self.stale_allows.is_empty()
    }
}

/// Hot-path files for the `panic-hot-path` rule, relative to the scan
/// root. The request path must degrade (error replies, skipped
/// entries) rather than take the whole worker down.
const HOT_PATHS: &[&str] = &[
    "crates/service/src/server.rs",
    "crates/service/src/service.rs",
    "crates/service/src/wire.rs",
    "crates/service/src/queue.rs",
    "crates/gat/src/index.rs",
    "crates/gat/src/sharded.rs",
];

/// Blocking-I/O markers for the `lock-hold` rule. Matched as plain
/// substrings against non-comment code.
const BLOCKING_IO: &[&str] = &[
    "std::fs::",
    "fs::write(",
    "fs::read(",
    "File::create(",
    "File::open(",
    ".write_all(",
    ".read_to_end(",
    ".read_exact(",
    ".flush()",
    "TcpStream::connect(",
    "thread::sleep(",
    ".join()",
];

const ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// How far up an `// ordering:` / `// coherence:` comment may sit from
/// the site it covers, in lines. The walk skips blank lines, other
/// comment lines, other atomic sites and expression-continuation lines
/// (anything not ending a statement), so one comment covers a
/// contiguous cluster such as a snapshot struct literal.
const COMMENT_WALK_CAP: usize = 40;

/// Scans `root` (a directory containing `crates/`) and returns all raw
/// findings, before allowlist filtering.
pub fn scan(root: &Path) -> Result<(Vec<Finding>, usize), String> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir: {e}"))?;
        let path = entry.path();
        if !path.is_dir() || entry.file_name() == "lint" {
            continue; // the linter does not re-lint its own pattern tables
        }
        let src = path.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let count = files.len();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        scan_file(&rel, &text, &mut findings);
    }
    Ok((findings, count))
}

/// Scans and applies the allowlist; the complete front-end used by the
/// binary and the integration tests.
pub fn run(root: &Path) -> Result<Report, String> {
    let allow_path = root.join("lint.allow");
    let allow = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("cannot read {}: {e}", allow_path.display()))?;
        Allowlist::parse(&text)?
    } else {
        Allowlist::default()
    };
    let (raw, files_scanned) = scan(root)?;
    let mut used = vec![false; allow.entries.len()];
    let mut findings = Vec::new();
    for f in raw {
        let mut waived = false;
        for (i, e) in allow.entries.iter().enumerate() {
            if e.rule == f.rule && f.file.ends_with(&e.file) && f.message.contains(&e.needle) {
                used[i] = true;
                waived = true;
            }
        }
        if !waived {
            findings.push(f);
        }
    }
    let stale_allows = allow
        .entries
        .into_iter()
        .zip(used)
        .filter_map(|(e, u)| if u { None } else { Some(e) })
        .collect();
    Ok(Report {
        findings,
        stale_allows,
        files_scanned,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir: {e}"))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The trimmed code part of a line: leading whitespace and any
/// trailing `//` comment removed. Not string-literal aware — good
/// enough for this codebase's conventions, and the rules only get
/// *more* strict from the occasional `//` inside a string.
fn code_of(line: &str) -> &str {
    let line = match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    };
    line.trim()
}

fn is_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')
}

fn is_atomic_site(line: &str) -> bool {
    let code = code_of(line);
    ORDERINGS.iter().any(|o| code.contains(o))
}

/// First line (0-based) of the file's `#[cfg(test)]` region, or
/// `usize::MAX` when the file has none. Test modules sit at the end of
/// files in this workspace.
fn test_region_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(usize::MAX)
}

fn scan_file(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let test_start = test_region_start(&lines);
    rule_lock_hold(rel, &lines, findings);
    rule_atomics_ordering(rel, &lines, findings);
    rule_panic_hot_path(rel, &lines, test_start, findings);
    rule_snapshot_coherence(rel, &lines, findings);
    rule_condvar_wait_loop(rel, &lines, findings);
    rule_unsafe_safety(rel, &lines, findings);
}

/// Net brace balance of a line's code part.
fn brace_delta(code: &str) -> i64 {
    let mut d = 0i64;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// A `let`-bound guard acquisition: `let [mut] name = ….lock()` /
/// `.read()` / `.write()` (empty argument lists, so `io::Read::read`
/// and friends don't match). Returns the binding name.
fn guard_binding(code: &str) -> Option<String> {
    if !code.starts_with("let ") {
        return None;
    }
    if !(code.contains(".lock()") || code.contains(".read()") || code.contains(".write()")) {
        return None;
    }
    let rest = code[4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

fn is_second_acquisition(code: &str) -> bool {
    code.contains(".lock()") || code.contains(".read()") || code.contains(".write()")
}

fn rule_lock_hold(rel: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        let code = code_of(line);
        let Some(name) = guard_binding(code) else {
            continue;
        };
        // Walk the guard's scope: from the binding until the block it
        // lives in closes, or an explicit `drop(name)`.
        let mut depth = 0i64;
        let drop_marker = format!("drop({name})");
        for (j, body_line) in lines.iter().enumerate().skip(i + 1).take(200) {
            let body = code_of(body_line);
            depth += brace_delta(body);
            if depth < 0 || body.contains(&drop_marker) || body.starts_with("return") {
                break;
            }
            if is_second_acquisition(body) {
                findings.push(Finding {
                    rule: "lock-hold",
                    file: rel.to_string(),
                    line: j + 1,
                    message: format!(
                        "second lock acquired while guard `{name}` (line {}) is held: `{body}`",
                        i + 1
                    ),
                });
            } else if let Some(io) = BLOCKING_IO.iter().find(|p| body.contains(**p)) {
                findings.push(Finding {
                    rule: "lock-hold",
                    file: rel.to_string(),
                    line: j + 1,
                    message: format!(
                        "blocking call `{io}` while guard `{name}` (line {}) is held: `{body}`",
                        i + 1
                    ),
                });
            }
        }
    }
}

/// Whether the atomic site at `idx` is covered by an `// ordering:`
/// comment — on the same line, or found by walking upward through
/// blank lines, other comments, other atomic sites and
/// expression-continuation lines (lines whose code does not end a
/// statement with `;` or `}`), up to [`COMMENT_WALK_CAP`] lines.
fn covered_by(lines: &[&str], idx: usize, marker: &str) -> bool {
    if lines[idx].contains(marker) {
        return true;
    }
    let mut walked = 0;
    let mut j = idx;
    while j > 0 && walked < COMMENT_WALK_CAP {
        j -= 1;
        walked += 1;
        let line = lines[j];
        if is_comment_line(line) {
            if line.contains(marker) {
                return true;
            }
            continue;
        }
        let code = code_of(line);
        if code.is_empty() || is_atomic_site(line) {
            continue;
        }
        if code.ends_with(';') || code.ends_with('}') {
            return false; // statement boundary without a justification
        }
        // Continuation: struct field (`,`), opening brace, chained
        // call start, attribute, etc. — keep walking.
    }
    false
}

fn rule_atomics_ordering(rel: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if !is_atomic_site(line) {
            continue;
        }
        let code = code_of(line);
        if code.contains("Ordering::SeqCst") {
            findings.push(Finding {
                rule: "atomics-ordering",
                file: rel.to_string(),
                line: i + 1,
                message: format!(
                    "Ordering::SeqCst is denied by default; justify via lint.allow or weaken: `{code}`"
                ),
            });
            continue;
        }
        if !covered_by(lines, i, "ordering:") {
            findings.push(Finding {
                rule: "atomics-ordering",
                file: rel.to_string(),
                line: i + 1,
                message: format!("atomic access lacks an `// ordering:` justification: `{code}`"),
            });
        }
    }
}

fn rule_panic_hot_path(rel: &str, lines: &[&str], test_start: usize, findings: &mut Vec<Finding>) {
    if !HOT_PATHS.iter().any(|p| rel == *p || rel.ends_with(p)) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if i >= test_start {
            break;
        }
        let code = code_of(line);
        let mut flag: Option<&str> = None;
        if code.contains(".unwrap()") {
            flag = Some(".unwrap()");
        } else if code.contains("panic!") {
            flag = Some("panic!");
        } else if code.contains(".expect(") || code.contains(".expect(\"") {
            // `.expect("invariant: …")` is the sanctioned form: it
            // asserts something structurally guaranteed. Messages may
            // start on the next line for long invariants.
            let here = code.contains("invariant");
            let next = lines.get(i + 1).is_some_and(|l| l.contains("invariant"));
            if !(here || next) {
                flag = Some(".expect(");
            }
        }
        if let Some(what) = flag {
            findings.push(Finding {
                rule: "panic-hot-path",
                file: rel.to_string(),
                line: i + 1,
                message: format!("`{what}` in hot-path file: `{code}`"),
            });
        }
    }
}

/// Receiver texts of every atomic `.load(` on this line — for each
/// occurrence, everything from the start of its expression to
/// `.load(`.
fn load_receivers(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(".load(") {
        let at = from + rel;
        from = at + ".load(".len();
        if !code[at..].contains("Ordering::") {
            continue; // not an atomic load (e.g. Cell::get-alikes)
        }
        let head = &code[..at];
        let start = head
            .rfind(|c: char| !(c.is_alphanumeric() || "_.:[]()| &*".contains(c)))
            .map(|p| p + 1)
            .unwrap_or(0);
        let r = head[start..].trim().to_string();
        if !r.is_empty() {
            out.push(r);
        }
    }
    out
}

fn rule_snapshot_coherence(rel: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < lines.len() {
        let code = code_of(lines[i]);
        let is_fn = (code.starts_with("fn ")
            || code.starts_with("pub fn ")
            || code.starts_with("pub(crate) fn "))
            && code.contains('(');
        if !is_fn {
            i += 1;
            continue;
        }
        // Find the fn body: from the first `{` at or after the
        // signature line to its matching close.
        let mut depth = 0i64;
        let mut started = false;
        let mut end = i;
        for (j, line) in lines.iter().enumerate().skip(i) {
            let c = code_of(line);
            depth += brace_delta(c);
            if c.contains('{') {
                started = true;
            }
            if started && depth <= 0 {
                end = j;
                break;
            }
            end = j;
        }
        let mut receivers: Vec<String> = Vec::new();
        let mut first_load_line = 0usize;
        let mut has_comment = covered_by(lines, i, "coherence:");
        for (j, line) in lines.iter().enumerate().take(end + 1).skip(i) {
            if line.contains("coherence:") {
                has_comment = true;
            }
            for r in load_receivers(code_of(line)) {
                if !receivers.contains(&r) {
                    receivers.push(r);
                }
                if first_load_line == 0 {
                    first_load_line = j + 1;
                }
            }
        }
        if receivers.len() >= 2 && !has_comment {
            findings.push(Finding {
                rule: "atomic-snapshot-coherence",
                file: rel.to_string(),
                line: first_load_line,
                message: format!(
                    "function at line {} loads {} distinct atomics ({}) without a `coherence:` comment explaining why a torn cut is sound",
                    i + 1,
                    receivers.len(),
                    receivers.join(", ")
                ),
            });
        }
        i = end.max(i) + 1;
    }
}

/// A line whose code opens a loop body: `loop { … }`, `while pred {`,
/// `while let … {`, `for x in … {`.
fn is_loop_opener(code: &str) -> bool {
    code.starts_with("loop") || code.contains("while ") || code.contains("for ")
}

/// Whether the `.wait(&mut …)` at `idx` sits inside a loop. Climbs
/// upward tracking brace balance; every line that leaves the balance
/// positive opened a block still enclosing the wait site — a loop
/// opener there satisfies the rule, a `fn` signature means the walk
/// left the function without finding one. Intermediate non-loop
/// blocks (`match` arms, `if` guards) are climbed through, which is
/// exactly the shape of the real registry/queue wait sites.
fn wait_in_loop(lines: &[&str], idx: usize) -> bool {
    if is_loop_opener(code_of(lines[idx])) {
        return true; // single-line `while pred { cv.wait(&mut g); }`
    }
    let mut bal = 0i64;
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let code = code_of(lines[j]);
        bal += brace_delta(code);
        if bal > 0 {
            if is_loop_opener(code) {
                return true;
            }
            if code.contains("fn ") {
                return false; // reached the enclosing function header
            }
            bal = 0; // a non-loop enclosing block; keep climbing
        }
    }
    false
}

fn rule_condvar_wait_loop(rel: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        let code = code_of(line);
        // Blocking condvar waits only — `&mut guard` distinguishes
        // them from e.g. a ticket's consuming `wait()`.
        if !code.contains(".wait(&mut ") {
            continue;
        }
        if !wait_in_loop(lines, i) {
            findings.push(Finding {
                rule: "condvar-wait-must-loop",
                file: rel.to_string(),
                line: i + 1,
                message: format!(
                    "condvar wait is not inside a predicate-recheck loop (`while`/`loop`): `{code}`"
                ),
            });
        }
    }
}

/// Whether `code` contains `unsafe` as a standalone keyword token —
/// `unsafe_code` inside a `#![deny(…)]` attribute does not count.
fn has_unsafe_token(code: &str) -> bool {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find("unsafe").map(|p| p + from) {
        let end = at + "unsafe".len();
        let pre = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let post = end == code.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if pre && post {
            return true;
        }
        from = end;
    }
    false
}

fn rule_unsafe_safety(rel: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if !has_unsafe_token(code_of(line)) {
            continue;
        }
        if !covered_by(lines, i, "SAFETY:") {
            findings.push(Finding {
                rule: "unsafe-needs-safety-comment",
                file: rel.to_string(),
                line: i + 1,
                message: format!(
                    "`unsafe` without a `// SAFETY:` justification: `{}`",
                    code_of(line)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_src(rel: &str, src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        scan_file(rel, src, &mut f);
        f
    }

    #[test]
    fn guard_binding_matches_lock_calls_only() {
        assert_eq!(
            guard_binding("let mut g = self.inner.lock();"),
            Some("g".to_string())
        );
        assert_eq!(
            guard_binding("let data = map.read();"),
            Some("data".to_string())
        );
        // io::Read::read takes a buffer — no empty parens, no match.
        assert_eq!(guard_binding("let n = stream.read(&mut buf)?;"), None);
        assert_eq!(guard_binding("let x = compute();"), None);
    }

    #[test]
    fn lock_hold_flags_nested_acquisition_and_io() {
        let src = "fn f(&self) {\n    let a = self.first.lock();\n    let b = self.second.lock();\n    std::fs::write(\"x\", b\"y\").ok();\n}\n";
        let f = scan_src("crates/x/src/a.rs", src);
        let locks: Vec<_> = f.iter().filter(|f| f.rule == "lock-hold").collect();
        // Guard `a` sees the second lock and the I/O; the nested
        // guard `b` sees the I/O too — three findings total.
        assert_eq!(locks.len(), 3, "{locks:?}");
        assert!(locks[0].message.contains("second lock"));
        assert!(locks[1].message.contains("blocking call"));
    }

    #[test]
    fn lock_hold_respects_drop_and_scope_end() {
        let src = "fn f(&self) {\n    {\n        let a = self.first.lock();\n    }\n    let b = self.second.lock();\n    drop(b);\n    let c = self.third.lock();\n}\n";
        let f = scan_src("crates/x/src/a.rs", src);
        assert!(
            f.iter().all(|f| f.rule != "lock-hold"),
            "sequential guards are fine: {f:?}"
        );
    }

    #[test]
    fn ordering_comment_walk_covers_clusters() {
        let src = "fn f(&self) -> S {\n    // ordering: Relaxed — monotone tallies.\n    S {\n        a: self.a.load(Ordering::Relaxed),\n        b: self.b.load(Ordering::Relaxed),\n    }\n}\n";
        let f = scan_src("crates/x/src/a.rs", src);
        assert!(
            f.iter().all(|f| f.rule != "atomics-ordering"),
            "cluster comment covers both: {f:?}"
        );
    }

    #[test]
    fn ordering_without_comment_is_flagged_and_seqcst_denied() {
        let src = "fn f(&self) {\n    self.x.store(1, Ordering::Relaxed);\n    self.y.store(1, Ordering::SeqCst); // ordering: because\n}\n";
        let f = scan_src("crates/x/src/a.rs", src);
        let ord: Vec<_> = f.iter().filter(|f| f.rule == "atomics-ordering").collect();
        assert_eq!(ord.len(), 2, "{ord:?}");
        assert!(ord[0].message.contains("lacks"));
        assert!(ord[1].message.contains("SeqCst"));
    }

    #[test]
    fn statement_boundary_stops_the_walk() {
        let src = "fn f(&self) {\n    // ordering: Relaxed — covers only the next cluster.\n    self.a.load(Ordering::Relaxed);\n    do_something_else();\n    self.b.load(Ordering::Relaxed);\n}\n";
        let f = scan_src("crates/x/src/a.rs", src);
        let ord: Vec<_> = f.iter().filter(|f| f.rule == "atomics-ordering").collect();
        assert_eq!(ord.len(), 1, "{ord:?}");
        assert_eq!(ord[0].line, 5);
    }

    #[test]
    fn panic_rule_applies_to_hot_paths_only() {
        let src = "fn f() {\n    x.unwrap();\n}\n";
        assert!(scan_src("crates/gat/src/build.rs", src)
            .iter()
            .all(|f| f.rule != "panic-hot-path"));
        let f = scan_src("crates/service/src/wire.rs", src);
        assert!(f.iter().any(|f| f.rule == "panic-hot-path"), "{f:?}");
    }

    #[test]
    fn invariant_expects_and_test_modules_are_exempt() {
        let src = "fn f() {\n    x.expect(\"invariant: always present\");\n}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        y.unwrap();\n    }\n}\n";
        let f = scan_src("crates/service/src/wire.rs", src);
        assert!(
            f.iter().all(|f| f.rule != "panic-hot-path"),
            "invariant expect + test unwrap both exempt: {f:?}"
        );
    }

    #[test]
    fn snapshot_coherence_needs_two_distinct_receivers() {
        let one = "fn f(&self) -> u64 {\n    // ordering: Relaxed — tally.\n    self.a.load(Ordering::Relaxed) + self.a.load(Ordering::Relaxed)\n}\n";
        assert!(scan_src("crates/x/src/a.rs", one)
            .iter()
            .all(|f| f.rule != "atomic-snapshot-coherence"));
        let two = "fn f(&self) -> u64 {\n    // ordering: Relaxed — tallies.\n    self.a.load(Ordering::Relaxed) + self.b.load(Ordering::Relaxed)\n}\n";
        let f = scan_src("crates/x/src/a.rs", two);
        assert!(
            f.iter().any(|f| f.rule == "atomic-snapshot-coherence"),
            "{f:?}"
        );
        let documented = "fn f(&self) -> u64 {\n    // coherence: both tallies are advisory; a torn cut is fine.\n    // ordering: Relaxed — tallies.\n    self.a.load(Ordering::Relaxed) + self.b.load(Ordering::Relaxed)\n}\n";
        assert!(scan_src("crates/x/src/a.rs", documented)
            .iter()
            .all(|f| f.rule != "atomic-snapshot-coherence"));
    }

    #[test]
    fn condvar_wait_outside_loop_is_flagged() {
        let src = "fn f(&self) {\n    let mut g = self.inner.lock();\n    if g.n == 0 {\n        self.cond.wait(&mut g);\n    }\n}\n";
        let f = scan_src("crates/x/src/a.rs", src);
        let cv: Vec<_> = f
            .iter()
            .filter(|f| f.rule == "condvar-wait-must-loop")
            .collect();
        assert_eq!(cv.len(), 1, "{cv:?}");
        assert_eq!(cv[0].line, 4);
    }

    #[test]
    fn condvar_wait_in_while_and_in_match_in_loop_pass() {
        let looped = "fn f(&self) {\n    let mut g = self.inner.lock();\n    while g.n == 0 {\n        self.cond.wait(&mut g);\n    }\n}\n";
        assert!(scan_src("crates/x/src/a.rs", looped)
            .iter()
            .all(|f| f.rule != "condvar-wait-must-loop"));
        // The real registry shape: wait inside a match arm inside a
        // loop — the climb must pass through the non-loop levels.
        let nested = "fn f(&self) {\n    let mut g = self.inner.lock();\n    loop {\n        match g.state {\n            State::Ready => return,\n            State::Loading => {\n                self.cond.wait(&mut g);\n            }\n        }\n    }\n}\n";
        assert!(scan_src("crates/x/src/a.rs", nested)
            .iter()
            .all(|f| f.rule != "condvar-wait-must-loop"));
        // Non-blocking waits (no `&mut guard`) are out of scope.
        let ticket = "fn f(t: Ticket) {\n    t.wait();\n}\n";
        assert!(scan_src("crates/x/src/a.rs", ticket)
            .iter()
            .all(|f| f.rule != "condvar-wait-must-loop"));
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() {\n    unsafe { do_it() }\n}\n";
        let f = scan_src("crates/x/src/a.rs", bad);
        assert!(
            f.iter().any(|f| f.rule == "unsafe-needs-safety-comment"),
            "{f:?}"
        );
        let good =
            "fn f() {\n    // SAFETY: caller holds the slot lock.\n    unsafe { do_it() }\n}\n";
        assert!(scan_src("crates/x/src/a.rs", good)
            .iter()
            .all(|f| f.rule != "unsafe-needs-safety-comment"));
        // `unsafe_code` in a lint attribute is not the keyword.
        let attr = "#![deny(unsafe_code)]\n";
        assert!(scan_src("crates/x/src/a.rs", attr)
            .iter()
            .all(|f| f.rule != "unsafe-needs-safety-comment"));
    }

    #[test]
    fn allowlist_rejects_malformed_and_empty_reasons() {
        assert!(Allowlist::parse("rule|file|needle|reason").is_ok());
        assert!(Allowlist::parse("# comment\n\n").is_ok());
        assert!(Allowlist::parse("rule|file|needle|").is_err());
        assert!(Allowlist::parse("rule|file").is_err());
    }
}
