"""Checks the benchmark applies to every report the wolfes4 CLI writes.

Two kinds of check are counted.  The *gating entries* are the program's own
check entries, recomputed here as |measured - reference| <= tolerance; a
failing entry is a finding about the numerics.  The *output checks* are the
benchmark's: the exit code agrees with the report, each entry's status agrees
with its recomputation, a spectrum matches an independent closed form, and a
report is byte-identical across the passes of a run.  A failing output check
means the command's output cannot be trusted, so it also fails the command.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

#: Additive constant of the singular-oscillator levels omega*(2n + offset + delta).
#: At g1^2 = 0 the half-line Dirichlet oscillator has levels omega*(2n + 3/2)
#: and delta = 1/2, so the offset is 1, not the printed 1/2.
SHO_OFFSET = 1.0

#: Relative agreement required of a printed energy (the CLI prints 12 digits).
ENERGY_RTOL = 1e-9

#: CLI defaults for the flags the checks need to read back.
DEFAULTS = {"--omega": 1.0, "--g1sq": 3.0, "--max-quanta": 6, "--sector-mult": 1,
            "--format": "json"}


@dataclass
class Outcome:
    """Result of checking one report; ``problems`` name failed output checks."""

    checks: int = 0
    failed: int = 0
    max_abs_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, output_check: bool = True) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            if output_check:
                self.problems.append(name)


def flag(argv, name: str):
    """Value of ``--name`` in argv, cast like its default."""
    default = DEFAULTS[name]
    if name in argv:
        return type(default)(argv[argv.index(name) + 1])
    return default


def class_size(n_quanta: int) -> int:
    """Number of triples (n1, n2, n3) with n1 + n3 + 2*n2 = N."""
    return sum(n_quanta - 2 * n2 + 1 for n2 in range(n_quanta // 2 + 1))


def expected_levels(omega: float, g1_squared: float, cutoff: int,
                    sector_mult: int) -> list[tuple[int, float, int]]:
    """(N, energy, degeneracy) per N-class from the closed form, without enumeration."""
    delta = math.sqrt(0.25 + g1_squared / 3.0)
    return [(n, omega * (n + 1.0 + SHO_OFFSET + delta), sector_mult * class_size(n))
            for n in range(cutoff + 1)]


def parse_spectrum(data: bytes, fmt: str) -> tuple[list, dict | None]:
    """Levels (N, energy, degeneracy, member triples) of a spectrum report, and
    its ``resolved`` block (JSON only)."""
    text = data.decode("utf-8")
    if fmt == "json":
        payload = json.loads(text)
        return [(lv["N"], float(lv["energy"]), lv["degeneracy"],
                 [tuple(m) for m in lv["members"]])
                for lv in payload["levels"]], payload["resolved"]
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["N", "energy", "degeneracy", "members"]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    return [(int(n), float(e), int(d),
             [tuple(int(x) for x in m.strip("()").split(",")) for m in members.split(";")])
            for n, e, d, members in rows[1:]], None


def check_spectrum(levels, omega: float, g1_squared: float, cutoff: int,
                   sector_mult: int, out: Outcome) -> None:
    """Compare parsed levels with :func:`expected_levels`; three output checks."""
    expected = expected_levels(omega, g1_squared, cutoff, sector_mult)
    out.record("spectrum-levels",
               [lv[0] for lv in levels] == [n for n, _, _ in expected])
    energies_ok = len(levels) == len(expected)
    degeneracy_ok = energies_ok
    for (n, energy, degeneracy, members), (_, e_ref, d_ref) in zip(levels, expected):
        err = abs(energy - e_ref)
        out.max_abs_err = max(out.max_abs_err, err)
        energies_ok &= err <= ENERGY_RTOL * max(1.0, abs(e_ref))
        distinct = set(members)
        degeneracy_ok &= (degeneracy == d_ref
                          and len(distinct) == len(members) == d_ref // sector_mult
                          and all(a + c + 2 * b == n for a, b, c in distinct))
    out.record("spectrum-energies", energies_ok)
    out.record("spectrum-degeneracies", degeneracy_ok)


def check_entries(entries, out: Outcome) -> bool:
    """Recompute each check entry; returns whether every status reads pass."""
    for e in entries:
        tol = float(e["tolerance"])
        if math.isfinite(tol):
            err = abs(float(e["measured"]) - float(e["reference"]))
            ok = err <= tol
            out.max_abs_err = max(out.max_abs_err, err)
            out.record(f"entry {e['name']}", ok, output_check=False)
            out.record(f"status of {e['name']}", (e["status"] == "pass") == ok)
        else:
            # informational or custom-criterion entries: the status is the verdict
            out.record(f"entry {e['name']}", e["status"] == "pass", output_check=False)
    return all(e["status"] == "pass" for e in entries)


def check_report(argv, code: int | None, data: bytes | None,
                 reference: bytes | None) -> Outcome:
    """Check one command's exit code and report against its own contract.

    ``reference`` is the same command's report from the run's first pass,
    or None in that pass.
    """
    out = Outcome()
    if code is None or data is None:
        out.record("command completed with a report", False)
        return out
    try:
        if argv[0] == "spectrum":
            levels, resolved = parse_spectrum(data, flag(argv, "--format"))
            check_spectrum(levels, flag(argv, "--omega"), flag(argv, "--g1sq"),
                           flag(argv, "--max-quanta"), flag(argv, "--sector-mult"), out)
            if resolved is not None:
                out.record("spectrum-resolved-offset", resolved["sho_offset"] == SHO_OFFSET)
            expected_code = 0
        else:
            payload = json.loads(data)
            all_pass = check_entries(payload["checks"], out)
            if argv[0] == "resolve":
                out.record("resolved-offset",
                           payload["resolved"]["sho_offset"] == SHO_OFFSET)
            expected_code = 0 if all_pass or argv[0] == "audit" else 1
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        out.record(f"report parses ({type(exc).__name__}: {exc})", False)
        return out
    out.record(f"exit code {code}, expected {expected_code}", code == expected_code)
    if reference is not None:
        out.record("byte-identical to the first pass", data == reference)
    return out
