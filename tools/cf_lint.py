#!/usr/bin/env python3
"""cf_lint — the raw-shared-access, closed-form-charge and known-cost lint gates.

Every affine shared-memory access pattern in kernel code is supposed to go
through the certified executors in src/cfprims/ (exec_crs_gather,
exec_staged_copy, exec_cf_gather and friends): those are the only call sites
the Pass 1 conflict-freedom and Pass 3 safety certificates cover, and the
only ones the bulk accounting / certified-skip audit paths can elide.  A SharedTile touched directly —
.gather() / .scatter() / .raw() / .certified_raw() / .peek() — outside
src/cfprims/ is therefore either (a) a deliberately uncertified access
family (data-dependent serial merge, the conflicted bitonic baseline, ...)
or (b) a bug waiting to bypass the verifier.  A kernel that decides on
uncharged .peek() reads must report the device's rows through
.charge_row(), which is the access model itself and is not flagged.

Gate 1 finds every such direct touch and requires it to be covered by an
ALLOWLIST entry carrying a reason.  Unexplained touches fail the build; so
do stale allowlist entries (zero unexplained entries, in both directions).

Gate 2 has no allowlist: the closed-form charging primitives
(charge_shared_crs, charge_run, charge_gmem_run) may only be called under
src/cfprims/ (through cfprims::charge_certified, the one bulk charging path)
and src/gpusim/ (which defines them).  A call anywhere else in the C++
sources — src/, tests/, bench/, examples/, tools/ — fails the lint: a
closed-form charge outside cfprims would be an uncertified bulk path.

Gate 3 has no allowlist either: the known-cost charge forms
(BlockContext::charge_shared_costed, SharedTile::charge_row_costed) trust a
cost computed elsewhere, so they may only be called under src/gpusim/
(which defines them) and from src/sort/kernels.hpp (warp_split_search,
which prices each start/end probe row pair with shared_access_cost_pair, and
serial_merge_core, which prices its distinct-address head and fetch rows with
shared_access_cost_distinct).
Anywhere else a site could charge a cost it did not compute.

Mechanics (gate 1): for each C++ file under src/ (excluding src/cfprims/,
which owns the executors, and src/gpusim/memory_views.hpp, which defines
SharedTile),
collect the names of variables declared with type SharedTile<...> (plain,
reference, parameter or unique_ptr), then flag every `name.method(` /
`name->method(` / `std::as_const(name).method(` use of a shared-access
method on such a name.

Exit status: 0 clean, 1 violations or stale allowlist, 2 usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Direct SharedTile methods that move data or escape the access model.
METHODS = ("gather", "scatter", "raw", "certified_raw", "peek")

# Closed-form charging primitives (gate 2) and the trees allowed to call them.
CHARGE_RE = re.compile(r"\b(charge_shared_crs|charge_run|charge_gmem_run)\s*\(")
CHARGE_OWNERS = ("src/cfprims/", "src/gpusim/")
CHARGE_TREES = ("src", "tests", "bench", "examples", "tools")

# Known-cost charge forms (gate 3) and the only files allowed to call them.
COSTED_RE = re.compile(r"\b(charge_shared_costed|charge_row_costed)\s*\(")
COSTED_OWNERS = ("src/gpusim/", "src/sort/kernels.hpp")

# path (relative to repo root) -> {method -> reason}.  A "*" method covers
# every method in that file.  Every entry must match at least one flagged
# site or the lint fails (no stale suppressions).
ALLOWLIST: dict[str, dict[str, str]] = {
    "src/sort/bitonic.hpp": {
        "*": "the deliberately conflicted bitonic baseline: its whole point "
             "is to show what uncertified stride patterns cost",
    },
    "src/sort/kernels.hpp": {
        "peek": "merge-path probe reads of warp_split_search and head reads "
                "of serial_merge_core: the next address comes from a key "
                "comparison (diagonal search, serial merge step), outside any "
                "affine family, so no certificate can cover it; every probe "
                "row and every step's fetch row is charged and audited per "
                "lane through charge_row_costed",
    },
    "src/sort/multiway_pass.hpp": {
        "gather": "loser-tree baseline: its k-way co-rank probes pick "
                  "addresses by key comparison, outside any affine family; "
                  "charged and audited per lane",
    },
    "src/verify/analyzer.cpp": {
        "raw": "measure_worstcase_warp stages the Theorem 8 test input into "
               "the tile uncharged, outside any kernel: only the sequential "
               "merge that follows is measured",
    },
}

DECL_RE = re.compile(
    r"SharedTile\s*<[^<>]*(?:<[^<>]*>)?[^<>]*>\s*>?\s*[&*]?\s*(\w+)\s*[;,)({=]"
)
AS_CONST_RE = re.compile(
    r"std::as_const\(\s*(?:\*\s*)?(\w+)\s*\)\s*\.\s*(" + "|".join(METHODS) + r")\s*\("
)


def find_decl_names(text: str) -> set[str]:
    return set(DECL_RE.findall(text))


def flag_file(path: Path) -> list[tuple[int, str, str]]:
    """Returns (line, name, method) for each direct SharedTile access."""
    text = path.read_text()
    names = find_decl_names(text)
    if not names:
        return []
    use_re = re.compile(
        r"(?:\*\s*)?\b(" + "|".join(re.escape(n) for n in names) + r")\b\s*"
        r"(?:\.|->)\s*(" + "|".join(METHODS) + r")\s*\("
    )
    out = []
    for i, line in enumerate(text.splitlines(), 1):
        stripped = line.lstrip()
        if stripped.startswith("//"):
            continue
        for m in use_re.finditer(line):
            out.append((i, m.group(1), m.group(2)))
        for m in AS_CONST_RE.finditer(line):
            if m.group(1) in names:
                out.append((i, m.group(1), m.group(2)))
    return out


def flag_gated_calls(pattern: re.Pattern[str], owners: tuple[str, ...],
                     message: str) -> list[str]:
    """Calls matching `pattern` in the C++ sources outside `owners`."""
    out = []
    for tree in CHARGE_TREES:
        for path in sorted((REPO / tree).rglob("*")):
            rel = path.relative_to(REPO).as_posix()
            if path.suffix not in (".hpp", ".cpp") or rel.startswith(owners):
                continue
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if line.lstrip().startswith("//"):
                    continue
                for m in pattern.finditer(line):
                    out.append(f"{rel}:{i}: `{m.group(1)}()` {message}")
    return out


def flag_charges() -> list[str]:
    """Gate 2: closed-form charge calls outside src/cfprims/ and src/gpusim/."""
    return flag_gated_calls(
        CHARGE_RE, CHARGE_OWNERS,
        "closed-form charge outside src/cfprims/ and src/gpusim/ — charge "
        "through a cfprims executor (cfprims::charge_certified)")


def flag_costed() -> list[str]:
    """Gate 3: known-cost charge calls outside src/gpusim/ and kernels.hpp."""
    return flag_gated_calls(
        COSTED_RE, COSTED_OWNERS,
        "known-cost charge outside src/gpusim/ and src/sort/kernels.hpp — "
        "charge through charge_shared / charge_row, which compute the cost")


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__)
        return 2

    files = sorted(
        p
        for p in SRC.rglob("*")
        if p.suffix in (".hpp", ".cpp")
        and "cfprims" not in p.parts
        and p.name != "memory_views.hpp"
    )

    violations: list[str] = []
    used_entries: set[tuple[str, str]] = set()
    flagged_total = 0

    for path in files:
        rel = path.relative_to(REPO).as_posix()
        allow = ALLOWLIST.get(rel, {})
        for line, name, method in flag_file(path):
            flagged_total += 1
            if "*" in allow:
                used_entries.add((rel, "*"))
            elif method in allow:
                used_entries.add((rel, method))
            else:
                violations.append(
                    f"{rel}:{line}: direct SharedTile access `{name}.{method}()` "
                    f"outside src/cfprims/ — route it through a cfprims::exec_* "
                    f"executor or add an allowlist entry with a reason"
                )

    stale = [
        f"{rel}: stale allowlist entry for `{method}` (no matching access)"
        for rel, methods in ALLOWLIST.items()
        for method in methods
        if (rel, method) not in used_entries
    ]

    charges = flag_charges()
    costed = flag_costed()
    violations += charges + costed

    for v in violations:
        print(f"cf_lint: VIOLATION {v}")
    for s in stale:
        print(f"cf_lint: STALE {s}")
    ok = not violations and not stale
    print(
        f"cf_lint: {flagged_total} direct accesses in {len(files)} files, "
        f"{len(violations) - len(charges) - len(costed)} unexplained, {len(stale)} "
        f"stale allowlist entries, {len(charges)} closed-form charges outside "
        f"cfprims/gpusim, {len(costed)} known-cost charges outside "
        f"gpusim/kernels.hpp -> {'OK' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
