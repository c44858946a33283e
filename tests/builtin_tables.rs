//! README's "Builtin functions and reserved names" tables are the two
//! Rust tables, row for row.

use cmm::lang::SurfaceBuiltin;
use cmm::loopir::Builtin;

/// The rows of the markdown table whose header line is `marker`.
fn table_after(readme: &str, marker: &str) -> Vec<String> {
    let at = readme.find(marker).unwrap_or_else(|| panic!("README lost {marker:?}"));
    readme[at..]
        .lines()
        .skip_while(|l| !l.starts_with("|-"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(str::to_string)
        .collect()
}

#[test]
fn readme_builtin_tables_match_the_rust_tables() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");

    let surface: Vec<String> = SurfaceBuiltin::ALL
        .iter()
        .map(|b| {
            let ext = b.requires().map_or("host".to_string(), |e| e.to_string());
            format!("| `{}` | {} | {ext} |", b.name(), b.arity())
        })
        .collect();
    assert_eq!(table_after(&readme, "| function | arguments | extension |"), surface);

    let runtime: Vec<String> = Builtin::ALL
        .iter()
        .map(|b| {
            let args = b.arity().map_or("one per dimension".to_string(), |n| n.to_string());
            let pure = if b.is_pure() { "yes" } else { "no" };
            format!("| `{}` | {args} | {pure} |", b.c_name())
        })
        .collect();
    assert_eq!(table_after(&readme, "| C name | arguments | pure |"), runtime);
}
