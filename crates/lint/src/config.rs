//! Workspace scoping: which paths each rule polices.
//!
//! Rules are pure pattern logic; this module is the single place that
//! knows the shape of *this* workspace — which crates bear digests,
//! where wall-clock reads are legitimate, where panics are banned.
//! All paths are workspace-relative with `/` separators.

/// Directories never scanned: vendored stand-ins, build output, and the
/// lint fixtures (which contain violations *on purpose*).
pub const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "crates/lint/tests/fixtures"];

/// D1 allowlist: paths where reading the wall clock is the point.
/// Benches meter real elapsed time by design, and `hotpath.rs` is the
/// runtime-gated phase timer whose output is explicitly non-digest.
pub const D1_ALLOW: &[&str] = &["crates/bench/", "crates/primitives/src/hotpath.rs"];

/// D2 scope: the digest-bearing crates. A nondeterministic iteration
/// order anywhere in these can surface in a state digest.
pub const D2_SCOPE: &[&str] = &[
    "crates/eth/",
    "crates/core/",
    "crates/fl/",
    "crates/incentive/",
];

/// R1 scope: the daemon and the transport layer it runs on. Worker
/// threads here face untrusted peers and must degrade, not panic.
pub const R1_SCOPE: &[&str] = &["crates/rpcd/src/", "crates/rpc/src/transport.rs"];

/// True when `path` starts with any prefix in `prefixes`.
pub fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}
