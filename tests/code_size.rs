//! The size of the product code, held under a ceiling.
//!
//! The count is the number of non-blank lines that do not start with
//! `//` in the `.rs` files under `crates/` and `src/`, leaving out
//! `tests.rs` files, the `tests/`, `benches/`, `examples/` and `target/`
//! directories, and every `#[cfg(test)]` item (skipped to its `;` or its
//! matching brace). A change that adds code past the ceiling raises it in
//! the same diff and says why; one that removes code lowers it.

use std::fs;
use std::path::Path;

/// The count when the ceiling was last set.
const CEILING: usize = 23_712;

/// Counted lines of one source file.
fn count_file(src: &str) -> usize {
    let mut count = 0;
    // Inside a `#[cfg(test)]` item: the brace depth reached so far, and
    // whether its body has opened.
    let mut skipping: Option<(i64, bool)> = None;
    for line in src.lines() {
        let mut text = line.trim();
        if skipping.is_none() {
            if let Some(rest) = text.strip_prefix("#[cfg(test)]") {
                skipping = Some((0, false));
                text = rest.trim();
            }
        }
        if let Some((depth, opened)) = skipping.as_mut() {
            for c in text.chars() {
                match c {
                    '{' => {
                        *depth += 1;
                        *opened = true;
                    }
                    '}' => *depth -= 1,
                    _ => {}
                }
            }
            let ends_bare = !*opened && text.ends_with(';');
            if ends_bare || (*opened && *depth <= 0) {
                skipping = None;
            }
            continue;
        }
        if !text.is_empty() && !text.starts_with("//") {
            count += 1;
        }
    }
    count
}

fn count_dir(dir: &Path) -> usize {
    let mut total = 0;
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "tests" | "benches" | "examples" | "target") {
                total += count_dir(&path);
            }
        } else if name.ends_with(".rs") && name != "tests.rs" {
            let src = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            total += count_file(&src);
        }
    }
    total
}

#[test]
fn product_code_stays_under_its_ceiling() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let count = count_dir(&root.join("crates")) + count_dir(&root.join("src"));
    println!("product code: {count} lines (ceiling {CEILING})");
    assert!(
        count <= CEILING,
        "product code is {count} lines, above its ceiling of {CEILING}"
    );
}

#[test]
fn test_items_and_comments_are_not_counted() {
    let src = "\
//! doc
use a;

#[cfg(test)]
mod tests;
#[cfg(test)]
mod inline {
    fn f() {}
}
#[cfg(test)] fn g() -> u8 { 1 }
fn h() {
    // note
}
";
    assert_eq!(count_file(src), 3);
}
