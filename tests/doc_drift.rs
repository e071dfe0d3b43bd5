//! The documents quote what the code declares (the precedent is `smc-obs`'s
//! `design_table_lists_exactly_the_declared_variants`): README.md's table
//! names every crate, and README.md and DESIGN.md quote the declared counts.

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
