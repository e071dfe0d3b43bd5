//! The documents quote what the code declares (the precedent is `smc-obs`'s
//! `design_table_lists_exactly_the_declared_variants`): README.md's table
//! names every crate, README.md and DESIGN.md quote the declared counts, and
//! DESIGN.md's inventory and experiment tables name only modules that exist.

use smc_repro::smc_memory::fault::NUM_SITES;

const DOCS: [(&str, &str); 2] = [
    ("README.md", include_str!("../README.md")),
    ("DESIGN.md", include_str!("../DESIGN.md")),
];

/// `(directory, package)` for every `crates/*/Cargo.toml`.
fn workspace_crates() -> Vec<(String, String)> {
    let dir = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/crates")).unwrap();
    let mut crates: Vec<_> = dir
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let manifest = std::fs::read_to_string(path.join("Cargo.toml")).ok()?;
            let name = manifest.lines().find_map(|l| l.strip_prefix("name = \""))?;
            let dir = path.file_name()?.to_str()?.to_string();
            Some((dir, name.trim_end_matches('"').to_string()))
        })
        .collect();
    crates.sort();
    crates
}

/// Every crate no README line names with both its directory and package.
fn missing_crates(readme: &str, crates: &[(String, String)]) -> Vec<String> {
    let listed = |dir: &str, package: &str| {
        (readme.lines()).any(|l| l.contains(&format!("{dir}/")) && l.contains(package))
    };
    let missing = crates.iter().filter(|(dir, package)| !listed(dir, package));
    missing
        .map(|(dir, package)| format!("README.md has no row naming crates/{dir} ({package})"))
        .collect()
}

/// The declared counts. `scenarios` compiles only under `--cfg smc_check`,
/// so its rows, like `Mutation`'s, are counted in the declaring file.
fn declared() -> [(&'static str, usize); 3] {
    let rows = |file: &str, head: &str, row: &str| {
        let body = &file[file.find(head).unwrap()..];
        body[..body.find("\n}").unwrap()].matches(row).count()
    };
    let scenarios = include_str!("../crates/check/src/scenarios.rs");
    let mutations = include_str!("../crates/util/src/mutation.rs");
    let scenarios = rows(scenarios, "pub fn all()", "\",");
    let mutations = rows(mutations, "pub enum Mutation", " = 1 << ");
    [
        ("scenarios", scenarios),
        ("mutations", mutations),
        ("failpoints", NUM_SITES),
    ]
}

/// Every quoted "<digits> <kind>" that is not the declared count, and every
/// kind no document quotes (which would leave the check vacuous).
fn count_drift<T: AsRef<str>>(docs: &[(&str, T)], declared: &[(&str, usize)]) -> Vec<String> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut problems = Vec::new();
    for &(kind, count) in declared {
        let mut quoted = 0;
        for (doc, text) in docs {
            let text = text.as_ref();
            for (at, _) in text.match_indices(kind) {
                let head = text[..at].trim_end();
                let number = &head[head.trim_end_matches(|c: char| c.is_ascii_digit()).len()..];
                // Not "§8 failpoints", "1.5 mutations" or "scenariosX".
                let before = head[..head.len() - number.len()].chars().next_back();
                let joined = before.is_some_and(|c| word(c) || ".§".contains(c));
                let after = text[at + kind.len()..].chars().next().is_some_and(word);
                if head.len() == at || number.is_empty() || joined || after {
                    continue;
                }
                quoted += 1;
                if number.parse() != Ok(count) {
                    let line = text[..at].matches('\n').count() + 1;
                    problems.push(format!("{doc}:{line}: {number} {kind}, declared {count}"));
                }
            }
        }
        if quoted == 0 {
            problems.push(format!("no document quotes the number of {kind} ({count})"));
        }
    }
    problems
}

/// The `(path prefix, lib.rs)` of the crates whose modules DESIGN.md's
/// tables name.
const LIBS: [(&str, &str); 3] = [
    ("smc::", include_str!("../crates/core/src/lib.rs")),
    ("smc_memory::", include_str!("../crates/memory/src/lib.rs")),
    ("tpch::", include_str!("../crates/tpch/src/lib.rs")),
];

/// Every backticked `smc::<mod>`, `smc_memory::<mod>` or `tpch::<mod>` path
/// in the table rows of DESIGN.md §2 (inventory) and §4 (experiment index)
/// whose module its crate's `lib.rs` does not declare (public or not), and
/// how many such paths the tables hold.
fn undeclared_modules(design: &str) -> (Vec<String>, usize) {
    let declares = |lib: &str, module: &str| {
        let decl = format!("mod {module};");
        lib.lines()
            .any(|l| l.trim().trim_start_matches("pub ") == decl)
    };
    let (mut problems, mut paths, mut section) = (Vec::new(), 0, "");
    for (n, line) in design.lines().enumerate() {
        if line.starts_with("## ") {
            section = line;
        }
        let table = section.starts_with("## 2.") || section.starts_with("## 4.");
        if !table || !line.starts_with('|') {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            for (prefix, lib) in LIBS {
                let Some(rest) = span.strip_prefix(prefix) else {
                    continue;
                };
                paths += 1;
                let module: String = rest
                    .chars()
                    .take_while(|&c| c.is_alphanumeric() || c == '_')
                    .collect();
                if !declares(lib, &module) {
                    problems.push(format!(
                        "DESIGN.md:{}: `{span}` is no declared module",
                        n + 1
                    ));
                }
            }
        }
    }
    (problems, paths)
}

#[test]
fn design_tables_name_declared_modules() {
    let (problems, paths) = undeclared_modules(DOCS[1].1);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert!(
        paths >= 4,
        "only {paths} module paths in DESIGN.md's tables"
    );
    let renamed = DOCS[1].1.replace("`smc::refs`", "`smc::direct`");
    let (problems, _) = undeclared_modules(&renamed);
    assert!(!problems.is_empty(), "a renamed module passes");
}

#[test]
fn readme_and_design_quote_what_the_code_declares() {
    let mut problems = missing_crates(DOCS[0].1, &workspace_crates());
    problems.extend(count_drift(&DOCS, &declared()));
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn a_deleted_crate_row_and_each_bumped_count_are_caught() {
    let crates = workspace_crates();
    let (dir, package) = crates.last().unwrap();
    let row = |l: &&str| l.contains(&format!("{dir}/")) && l.contains(package.as_str());
    let cut: Vec<&str> = DOCS[0].1.lines().filter(|l| !row(l)).collect();
    let missing = missing_crates(&cut.join("\n"), &crates);
    assert_eq!(missing.len(), 1, "deleting the row of {package}");
    for (kind, count) in declared() {
        let (from, to) = (format!("{count} {kind}"), format!("{} {kind}", count + 1));
        let bumped = DOCS.map(|(doc, text)| (doc, text.replace(&from, &to)));
        let problems = count_drift(&bumped, &declared());
        assert!(!problems.is_empty(), "a bumped count of {kind} passes");
    }
}
