#!/usr/bin/env python3
"""Doc-drift gate: the README architecture table must list every workspace
crate, and README/DESIGN must quote the checker's counts as declared.

The table in README.md ("## Architecture") is the first thing a reader uses
to orient themselves; a crate that exists in ``crates/`` but not in the table
is invisible documentation debt. This script:

  * enumerates the workspace members by reading each ``crates/*/Cargo.toml``
    ``[package] name`` (the authoritative list — the workspace manifest uses
    a ``crates/*`` glob, so a directory IS a member);
  * requires each crate to appear in README.md on a line that carries both
    its directory (``persist/``) and its package name (``smc-persist``);
  * exits 1 naming every missing crate.

A second check covers the three counts the documents like to quote and
that every PR to the checker or the fault registry moves: protocol
scenarios (the rows of ``scenarios::all()``), seeded mutations (the variants
of ``Mutation``) and failpoints (the rows of ``fault_sites!``). Wherever
README.md or DESIGN.md says ``<digits> scenarios``, ``<digits> mutations`` or
``<digits> failpoints``, the number must be the declared one, and each count
must be quoted at least once so the check cannot go vacuous.

``--self-test`` verifies the gate actually bites: it re-runs the checks
against a README with one crate's row deleted, and against documents with
one quoted count bumped, and fails if either slips through.

Exit status: 0 = in sync, 1 = drift (or self-test failure), 2 = IO error.
"""

import argparse
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workspace_crates():
    """Yields (directory_name, package_name) for every workspace member."""
    crates = []
    for manifest in sorted(ROOT.glob("crates/*/Cargo.toml")):
        text = manifest.read_text()
        m = re.search(r'^name\s*=\s*"([^"]+)"', text, re.MULTILINE)
        if not m:
            print(f"doc_drift: no package name in {manifest}", file=sys.stderr)
            sys.exit(2)
        crates.append((manifest.parent.name, m.group(1)))
    if not crates:
        print("doc_drift: found no crates/*/Cargo.toml", file=sys.stderr)
        sys.exit(2)
    return crates


def missing_from(readme_text, crates):
    """Crates without a README line naming both their dir and package."""
    missing = []
    lines = readme_text.splitlines()
    for dirname, package in crates:
        if not any(f"{dirname}/" in ln and package in ln for ln in lines):
            missing.append((dirname, package))
    return missing


# kind -> (declaring file, the region of it that holds the table, one row)
DECLARED = {
    "scenarios": ("crates/check/src/scenarios.rs",
                  r"pub fn all\(\).*?\n}\n", r'^\s*\("\w+",'),
    "mutations": ("crates/memory/src/mutation.rs",
                  r"pub enum Mutation \{.*?\n}\n", r"^\s*\w+ = 1 << \d+,"),
    "failpoints": ("crates/memory/src/fault.rs",
                   r"\nfault_sites! \{.*?\n}\n", r'^\s*\w+ => "'),
}


def declared_counts():
    """The number of rows in each declaring table."""
    counts = {}
    for kind, (path, region, row) in DECLARED.items():
        text = (ROOT / path).read_text()
        m = re.search(region, text, re.DOTALL)
        n = len(re.findall(row, m.group(0), re.MULTILINE)) if m else 0
        if n == 0:
            print(f"doc_drift: found no {kind} table in {path}",
                  file=sys.stderr)
            sys.exit(2)
        counts[kind] = n
    return counts


def count_drift(docs, counts):
    """Messages for every quoted count that is wrong, or never quoted."""
    problems = []
    for kind, declared in counts.items():
        quoted = 0
        for name, text in docs.items():
            # "§8 failpoints" is a section reference, not a count.
            for m in re.finditer(rf"(?<![§\d.])\b(\d+)\s+{kind}\b", text):
                quoted += 1
                if int(m.group(1)) != declared:
                    line = text.count("\n", 0, m.start()) + 1
                    problems.append(
                        f"{name}:{line} says {m.group(0)!r} but "
                        f"{DECLARED[kind][0]} declares {declared}")
        if quoted == 0:
            problems.append(f"no document quotes the number of {kind} "
                            f"({declared}); the check would be vacuous")
    return problems


def read_docs(readme_path):
    try:
        return {"README.md": Path(readme_path).read_text(),
                "DESIGN.md": (ROOT / "DESIGN.md").read_text()}
    except OSError as e:
        print(f"doc_drift: cannot read {e.filename}: {e}", file=sys.stderr)
        sys.exit(2)


def run_check(readme_path):
    docs = read_docs(readme_path)
    crates = workspace_crates()
    missing = missing_from(docs["README.md"], crates)
    for dirname, package in missing:
        print(f"doc_drift: FAIL: workspace crate {package!r} "
              f"(crates/{dirname}) is missing from the README "
              f"architecture table", file=sys.stderr)
    counts = declared_counts()
    drift = count_drift(docs, counts)
    for problem in drift:
        print(f"doc_drift: FAIL: {problem}", file=sys.stderr)
    if missing or drift:
        return 1
    quoted = ", ".join(f"{n} {kind}" for kind, n in counts.items())
    print(f"doc_drift: PASS — all {len(crates)} workspace crates listed "
          f"in {readme_path}; quoted counts match ({quoted})")
    return 0


def self_test(readme_path):
    text = Path(readme_path).read_text()
    crates = workspace_crates()
    if missing_from(text, crates):
        print("doc_drift self-test: clean README already fails the check",
              file=sys.stderr)
        return 1
    # Delete one crate's row and demand the gate notices.
    dirname, package = crates[-1]
    doctored = "\n".join(
        ln for ln in text.splitlines()
        if not (f"{dirname}/" in ln and package in ln))
    if not missing_from(doctored, crates):
        print(f"doc_drift self-test: FAILED to notice {package!r} "
              f"deleted from the table", file=sys.stderr)
        return 1
    print(f"doc_drift self-test: correctly caught deleted row for "
          f"{package!r}")
    # Bump each quoted count in turn and demand the gate notices.
    docs = read_docs(readme_path)
    counts = declared_counts()
    if count_drift(docs, counts):
        print("doc_drift self-test: clean documents already fail the "
              "count check", file=sys.stderr)
        return 1
    for kind, declared in counts.items():
        wrong = {name: re.sub(rf"\b{declared}(\s+{kind})\b",
                              rf"{declared + 1}\1", text)
                 for name, text in docs.items()}
        if not count_drift(wrong, counts):
            print(f"doc_drift self-test: FAILED to notice a wrong number "
                  f"of {kind}", file=sys.stderr)
            return 1
    print("doc_drift self-test: correctly caught a bumped count of "
          + ", ".join(counts))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--readme", default=str(ROOT / "README.md"),
                    help="README to check (default: repo README.md)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate catches a deleted table row")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test(args.readme))
    sys.exit(run_check(args.readme))


if __name__ == "__main__":
    main()
