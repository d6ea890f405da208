#!/usr/bin/env python3
"""Count non-test code lines per crate.

For every crate of the workspace (the root package and each
`Cargo.toml` under `crates/`), this counts the lines of the `.rs` files
under the crate's `src/` that are

  * not blank,
  * not comments (`//`, `///`, `//!`, or inside a `/* ... */` block),
  * before the first `#[cfg(test)]` line of their file (the in-file
    test module).

It prints one line per crate plus a total and always exits 0: the
figure is reported, never gated.

    python3 scripts/count_code_lines.py          # from the repo root
    python3 scripts/count_code_lines.py crates/serve
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count_file(path):
    """Non-blank, non-comment lines before the first `#[cfg(test)]`."""
    lines = 0
    in_block = False
    with open(path, encoding="utf-8", errors="replace") as f:
        for raw in f:
            line = raw.strip()
            if in_block:
                if "*/" in line:
                    in_block = False
                    line = line.split("*/", 1)[1].strip()
                else:
                    continue
            if line.startswith("#[cfg(test)]"):
                break
            if line.startswith("/*"):
                if "*/" not in line:
                    in_block = True
                continue
            if not line or line.startswith("//"):
                continue
            lines += 1
    return lines


def count_crate(crate_dir):
    total = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(crate_dir, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".rs"):
                total += count_file(os.path.join(dirpath, name))
    return total


def workspace_crates():
    crates = [ROOT]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "crates")):
        dirnames[:] = sorted(d for d in dirnames if d not in ("target", "src"))
        if "Cargo.toml" in filenames:
            crates.append(dirpath)
    return crates


def main(argv):
    crates = [os.path.abspath(a) for a in argv] or workspace_crates()
    rows = [(os.path.relpath(c, ROOT), count_crate(c)) for c in crates]
    width = max(len(name) for name, _ in rows)
    for name, n in rows:
        print(f"{name:<{width}}  {n:>7}")
    if len(rows) > 1:
        print(f"{'total':<{width}}  {sum(n for _, n in rows):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
