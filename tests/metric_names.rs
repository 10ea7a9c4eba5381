//! The metric vocabulary in DESIGN.md §11 is the set of names the code
//! records.
//!
//! Metric names are an API (dashboards key on them), so the table that
//! documents them must not drift from the code. This test expands every
//! name in §11's vocabulary table (`{a,b}` lists included) and compares
//! that set, both ways, with the metric-name string literals — those
//! starting `core.`, `store.`, `server.`, `reader.` or `client.` — in the
//! non-test part of every crate's `src` and of the root `src`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const PREFIXES: [&str; 5] = ["core.", "store.", "server.", "reader.", "client."];

/// Whether `s` has the shape of a metric name: a known prefix followed by
/// lowercase dotted words.
fn is_metric_name(s: &str) -> bool {
    PREFIXES.iter().any(|p| s.starts_with(p))
        && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_')
}

/// Expands every `{a,b,…}` group of `name`: `x.{a,b}.y` → `x.a.y`, `x.b.y`.
fn expand(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else {
        return vec![name.to_string()];
    };
    let close = open + name[open..].find('}').expect("unclosed brace in a metric name");
    name[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{}{}", &name[..open], alt.trim(), &name[close + 1..])))
        .collect()
}

/// Every name in the `names` column of DESIGN.md §11's vocabulary table.
fn documented_names(design: &str) -> BTreeSet<String> {
    let section = &design[design.find("## 11.").expect("DESIGN.md has no §11")..];
    let section = &section[..section.find("\n## 12.").unwrap_or(section.len())];
    let table =
        &section[section.find("| family | names |").expect("§11 has no vocabulary table")..];
    let mut names = BTreeSet::new();
    // Skip the header and separator rows; the table ends at its first
    // non-row line.
    for row in table.lines().skip(2).take_while(|l| l.starts_with('|')) {
        let column = row.split('|').nth(2).expect("a row has a names column");
        for span in column.split('`').skip(1).step_by(2) {
            names.extend(expand(span));
        }
    }
    names
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Metric-name string literals in the non-test part of the source tree:
/// every line before a file's first top-level `#[cfg(test)]` (each
/// source file keeps its test modules at its end), comment lines skipped.
fn recorded_names(root: &Path) -> BTreeSet<String> {
    let mut src_dirs = vec![root.join("src")];
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        src_dirs.push(krate.unwrap().path().join("src"));
    }
    let mut files = Vec::new();
    for dir in src_dirs.iter().filter(|d| d.is_dir()) {
        rust_files(dir, &mut files);
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).unwrap();
        let code = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for line in code.filter(|l| !l.trim_start().starts_with("//")) {
            let literals = line.split('"').skip(1).step_by(2);
            names.extend(literals.filter(|s| is_metric_name(s)).map(str::to_string));
        }
    }
    names
}

#[test]
fn the_metric_vocabulary_is_what_the_code_records() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let documented = documented_names(&fs::read_to_string(root.join("DESIGN.md")).unwrap());
    let recorded = recorded_names(root);
    assert!(documented.len() > 50 && recorded.len() > 50, "{documented:?}\n{recorded:?}");
    let undocumented: Vec<_> = recorded.difference(&documented).collect();
    let unrecorded: Vec<_> = documented.difference(&recorded).collect();
    assert!(
        undocumented.is_empty() && unrecorded.is_empty(),
        "recorded but not in DESIGN.md §11's table: {undocumented:?}; \
         in the table but recorded nowhere: {unrecorded:?}"
    );
}
