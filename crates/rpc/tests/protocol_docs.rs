//! The protocol version the docs show must be the one the code speaks.
//!
//! `frame.rs`'s module diagram, the README's frame diagram and the
//! README's `rpcd` banner sample each spell the version out by hand; this
//! test fails as soon as one of them names anything but
//! [`PROTOCOL_VERSION`].

use ofl_rpc::PROTOCOL_VERSION;
use std::path::Path;

/// Every number that follows `marker` on a line of `text` that `keep`
/// accepts, with the line it came from.
fn versions_after<'a>(
    text: &'a str,
    marker: &str,
    keep: impl Fn(&str) -> bool,
) -> Vec<(u16, &'a str)> {
    text.lines()
        .filter(|line| keep(line))
        .filter_map(|line| {
            let rest = &line[line.find(marker)? + marker.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            Some((digits.parse().ok()?, line))
        })
        .collect()
}

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_current(place: &str, found: &[(u16, &str)]) {
    assert!(!found.is_empty(), "{place}: no protocol version found");
    for (version, line) in found {
        assert_eq!(
            *version, PROTOCOL_VERSION,
            "{place} shows protocol v{version}, the code speaks v{PROTOCOL_VERSION}: {line}"
        );
    }
}

#[test]
fn documented_protocol_versions_match_the_code() {
    let frame_rs = read("src/frame.rs");
    let module_diagram = versions_after(&frame_rs, "u16 = ", |l| l.starts_with("//!"));
    assert_current("frame.rs module diagram", &module_diagram);

    let readme = read("../../README.md");
    let frame_diagram = versions_after(&readme, "u16 = ", |l| l.starts_with('│'));
    assert_current("README frame diagram", &frame_diagram);
    let banner = versions_after(&readme, "(protocol v", |l| l.starts_with("rpcd: serving"));
    assert_current("README rpcd banner sample", &banner);
}
