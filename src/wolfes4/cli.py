"""Batch command-line surface: spectra, verification suites, reports.

Commands: ``spectrum``, ``verify {jacobi|spherical|3d|all}``, ``hf-check``,
``resolve``, ``audit``.  Exit codes: 0 = pass, 1 = verification failure
(or an ambiguous formula resolution, an eigensolve that did not converge,
or a LAPACK failure), 2 = usage or configuration error; ``audit`` exits 0
whatever its entries read, as they measure the published claims, not this
code.  Output is JSON (default) or CSV with a fixed float format, so
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

from numpy.linalg import LinAlgError

from .grid3d import ConvergenceError, check_grid
from .model import (
    ModelParams,
    RADIAL_RULES,
    SHO_OFFSET_CANDIDATES,
    enumerate_spectrum,
)
from .verify import (
    GRID3D_EXTENT,
    GRID3D_POINTS,
    STANDARD_SWEEP,
    CheckEntry,
    ResolutionError,
    VerificationReport,
    bk_audit,
    hellmann_feynman_check,
    resolve_formula_offsets,
    verify_3d,
    verify_jacobi_route,
    verify_spherical_route,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

STATE_FILE_NAME = "resolved_constants.txt"

#: Largest --max-quanta.  The triples grow as the cube of it: 60 gives ~20k
#: and a 1.2 MB spectrum report.
MAX_QUANTA = 60
#: Largest --g1sq.  Every 1D command passes at it at --max-quanta 60; their
#: boxes follow the levels, so `verify jacobi` there passes to 1e6 too.  The
#: 3D grid takes less (grid3d.check_grid).
MAX_G1SQ = 1e4


def _setting(flag: str, default=None, type=str, choices=None):
    """A RunConfig field that ``flag`` sets, as do its field and flag names in a config file."""
    return field(default=default, metadata={"flag": flag, "type": type, "choices": choices})


def _dest(f) -> str:
    return f.metadata["flag"][2:].replace("-", "_")


@dataclass
class RunConfig:
    """Settings of one command.

    ``grid_points``, ``domain_extent`` and ``tol`` stay None unless a flag or
    the config file sets them; the check a command calls then keeps its own
    default, which differs between the 1D channels and the 3D grid.  Under
    ``verify all`` a set ``grid_points`` goes to the 3D grid only, and the
    1D legs keep their default.  Each grid is admitted by the solver it
    sizes; ``spectrum``, which solves none, ignores both.
    ``params``, the ModelParams of ``omega`` and ``g1_squared``, is built
    once at construction and validates them.
    """

    omega: float = _setting("--omega", 1.0, float)
    g1_squared: float = _setting("--g1sq", 3.0, float)
    max_quanta: int = _setting("--max-quanta", 6, int)
    grid_points: int | None = _setting("--grid-points", type=int)
    domain_extent: float | None = _setting("--domain-extent", type=float)
    tol: float | None = _setting("--tol", type=float)
    sector_multiplicity: int = _setting("--sector-mult", 1, int, (1, 2))
    format: str = _setting("--format", "json", choices=("json", "csv"))
    out: str | None = _setting("--out")

    def __post_init__(self) -> None:
        self.params = ModelParams(omega=self.omega, g1_squared=self.g1_squared)
        if self.g1_squared > MAX_G1SQ:
            raise ValueError(f"--g1sq must be at most {MAX_G1SQ:g}, the admissible "
                             f"coupling range, got {self.g1_squared:g}")
        if not 0 <= self.max_quanta <= MAX_QUANTA:
            raise ValueError(f"max-quanta must lie in [0, {MAX_QUANTA}], "
                             f"got {self.max_quanta}")
        # in units of omega: at 1 a level would pass for its neighbour class
        if self.tol is not None and not 0 < self.tol < 1:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol:g}")
        for f in fields(self):
            choices = f.metadata["choices"]
            if choices and getattr(self, f.name) not in choices:
                raise ValueError(f"{f.metadata['flag'][2:]} must be "
                                 + " or ".join(map(str, choices)))


def format_float(x: float) -> str:
    """12 significant digits; scientific for |x| < 1e-3 or >= 1e6."""
    if not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    if x == 0:
        return "0"
    a = abs(x)
    if a < 1e-3 or a >= 1e6:
        return f"{x:.11e}"
    return f"{x:.12g}"


def _json_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        s = format_float(x)
        # JSON has no literal for non-finite numbers; emit them as strings
        return s if s[0].isdigit() or s[0] == "-" and s[1].isdigit() else f'"{s}"'
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_json(obj, indent: int = 0) -> str:
    """JSON text of nested dicts, lists and tuples, two spaces per level.

    Each item is dispatched on its type: an int is written inline, a nested
    container recurses through this module global, and every other value
    goes through _json_scalar.
    """
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return _json_scalar(obj)
    if not obj:
        return brackets
    items = []
    for v in values:
        if type(v) is int:  # not bool, which subclasses int
            items.append(str(v))
        elif isinstance(v, (dict, list, tuple)):
            items.append(to_json(v, indent + 1))
        else:
            items.append(_json_scalar(v))
    if brackets == "{}":
        items = [f'"{k}": {s}' for k, s in zip(obj, items)]
    inner = "  " * (indent + 1)
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + "  " * indent + brackets[1])


def to_csv(header: list[str], rows: list[list]) -> str:
    """CSV text, one line per row; floats written as format_float writes them."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_float(x) if isinstance(x, float) else x for x in row]
                     for row in rows)
    return out.getvalue()


def render_checks(config: RunConfig, report: VerificationReport,
                  resolved: dict | None) -> str:
    """A check report: CheckEntry's fields are its JSON keys and its CSV header."""
    names = [f.name for f in fields(CheckEntry)]
    rows = [[getattr(c, name) for name in names] for c in report.checks]
    if config.format == "csv":
        return to_csv(names, rows)
    payload = {"params": {"omega": config.omega, "g1_squared": config.g1_squared},
               "checks": [dict(zip(names, row)) for row in rows]}
    if resolved is not None:
        payload["resolved"] = resolved
    return to_json(payload) + "\n"


def write_file(path: str, text: str) -> None:
    """The one writer of the files a command leaves: its --out report and the state file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def emit(config: RunConfig, text: str) -> None:
    if config.out:
        write_file(config.out, text)
    else:
        sys.stdout.write(text)


def emit_checks(config: RunConfig, report: VerificationReport,
                resolved: dict | None = None) -> int:
    """Emit a check report; its exit code is 0 when every entry passes, else 1."""
    emit(config, render_checks(config, report, resolved))
    return EXIT_PASS if report.passed else EXIT_FAIL


# -- config and state files -------------------------------------------------

#: config-file key -> RunConfig field: each field's name and its flag's name
_CONFIG_KEYS = {key: f.name for f in fields(RunConfig) for key in (f.name, _dest(f))}


def parse_key_value_file(path: str) -> dict:
    """Plain ``key = value`` lines with ``#`` comments; a setting's key is its field name."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            values[_CONFIG_KEYS.get(key, key)] = val
    return values


def load_config_file(path: str) -> dict:
    types = {f.name: f.metadata["type"] for f in fields(RunConfig)}
    out: dict = {}
    for key, val in parse_key_value_file(path).items():
        if key not in types:
            raise ValueError(f"unknown configuration key {key!r}")
        out[key] = types[key](val)
    return out


def state_file_path(config_path: str | None) -> str:
    base = os.path.dirname(os.path.abspath(config_path)) if config_path else os.getcwd()
    return os.path.join(base, STATE_FILE_NAME)


def write_state_file(path: str, offset: float, rule: str) -> None:
    write_file(path, "# resolved formula constants (written by `wolfes4 resolve`)\n"
                     f"sho_offset = {offset:g}\n"
                     f"radial_rule = {rule}\n")


def _resolved(offset: float, rule: str) -> dict:
    """A resolution as a report's ``resolved`` entry; its keys are the state file's."""
    return {"sho_offset": offset, "radial_rule": rule}


def load_state_file(path: str) -> dict | None:
    """The stored resolution as a report's ``resolved`` entry, or None when the
    file is absent, unreadable or holds no usable pair."""
    if not os.path.exists(path):
        return None
    try:
        raw = parse_key_value_file(path)
        offset = float(raw["sho_offset"])
        rule = raw["radial_rule"]
    except (KeyError, ValueError, OSError):
        return None
    if offset not in SHO_OFFSET_CANDIDATES or rule not in RADIAL_RULES:
        return None
    return _resolved(offset, rule)


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the flags every subcommand takes, on one parent that each copies
    common = argparse.ArgumentParser(add_help=False)
    for f in fields(RunConfig):
        common.add_argument(f.metadata["flag"], type=f.metadata["type"],
                            choices=f.metadata["choices"])
    common.add_argument("--config", default=None)
    parser = argparse.ArgumentParser(
        prog="wolfes4",
        description="Spectra and cross-checks for the four-particle chain "
                    "with an inverse-square barrier.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "closed-form level table"),
        ("hf-check", "three-way Hellmann-Feynman derivative comparison"),
        ("resolve", "fix the printed-formula constants against the numerics"),
        ("audit", "measured audit of the earlier spherical-route claims"),
    ):
        sub.add_parser(name, help=help_text, parents=[common])
    p = sub.add_parser("verify", help="route-equivalence verification suites",
                       parents=[common])
    p.add_argument("which", choices=("jacobi", "spherical", "3d", "all"))
    return parser


def make_config(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """Settings from the flags, then the config file; also the names either gave."""
    merged = load_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        if getattr(args, _dest(f)) is not None:
            merged[f.name] = getattr(args, _dest(f))
    return RunConfig(**merged), set(merged)


# -- commands ---------------------------------------------------------------


def _given(**kwargs) -> dict:
    """The keyword arguments the user set; the rest keep the callee's defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _resolution(config_path: str | None) -> dict:
    """Stored resolution if present, otherwise computed in memory."""
    stored = load_state_file(state_file_path(config_path))
    if stored is not None:
        return stored
    offset, rule, _ = resolve_formula_offsets()
    return _resolved(offset, rule)


def cmd_spectrum(config: RunConfig, config_path: str | None) -> int:
    resolved = load_state_file(state_file_path(config_path))
    if resolved is None:
        sys.stderr.write(
            "warning: formula resolution has not been run; printing the "
            "published level formula (offset 1/2). Run `wolfes4 resolve`.\n")
    offset = resolved["sho_offset"] if resolved else SHO_OFFSET_CANDIDATES[0]
    table = enumerate_spectrum(config.params, config.max_quanta, offset,
                               config.sector_multiplicity)
    if config.format == "json":
        payload = {"params": {"omega": config.omega, "g1_squared": config.g1_squared}}
        if resolved is not None:
            payload["resolved"] = resolved
        payload["levels"] = [
            {"N": lv.members[0].total_quanta, "energy": lv.value,
             "degeneracy": lv.degeneracy,
             "members": [(t.n1, t.n2, t.n3) for t in lv.members]}
            for lv in table.levels
        ]
        emit(config, to_json(payload) + "\n")
    else:
        rows = [[lv.members[0].total_quanta, lv.value, lv.degeneracy,
                 ";".join([f"({t.n1},{t.n2},{t.n3})" for t in lv.members])]
                for lv in table.levels]
        emit(config, to_csv(["N", "energy", "degeneracy", "members"], rows))
    return EXIT_PASS


def cmd_verify(config: RunConfig, which: str, config_path: str | None) -> int:
    n_cap = min(config.max_quanta, 4)
    # the 3D grid unset takes verify_3d's defaults; checked before `verify all`'s 1D legs
    grid = {"n_per_axis": GRID3D_POINTS, "extent": GRID3D_EXTENT,
            **_given(n_per_axis=config.grid_points, extent=config.domain_extent)}
    if which in ("3d", "all"):
        check_grid(config.params, **grid)
    resolved = _resolution(config_path)
    offset = resolved["sho_offset"]
    report = VerificationReport()
    # under `verify all` --grid-points sizes the 3D grid only: no 1D leg
    # passes on a channel of the 16 to 121 points the 3D grid admits
    channel = _given(tol=config.tol,
                     n_points=None if which == "all" else config.grid_points)
    if which in ("jacobi", "all"):
        report.extend(verify_jacobi_route(config.params, config.max_quanta,
                                          offset=offset, **channel))
    if which in ("spherical", "all"):
        report.extend(verify_spherical_route(config.params, n_cap, offset=offset,
                                             **channel))
    if which in ("3d", "all"):
        report.extend(verify_3d(config.params, k=6, offset=offset, **grid,
                                **_given(tol=config.tol)))
    return emit_checks(config, report, resolved)


def cmd_resolve(config: RunConfig, config_path: str | None,
                explicit_g1sq: bool) -> int:
    sweep = (config.g1_squared,) if explicit_g1sq else STANDARD_SWEEP
    offset, rule, report = resolve_formula_offsets(
        [replace(config.params, g1_squared=g) for g in sweep],
        **_given(tol=config.tol, n_points=config.grid_points))
    if explicit_g1sq:  # once the sweep has run: a rejected input stays one error line
        sys.stderr.write(
            "warning: resolution run on a reduced sweep (single g1sq value); "
            "the standard sweep spans g1sq in {"
            + ", ".join(f"{g:g}" for g in STANDARD_SWEEP) + "}\n")
    write_state_file(state_file_path(config_path), offset, rule)
    return emit_checks(config, report, _resolved(offset, rule))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config, given = make_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(config, args.config)
        if args.command == "verify":
            return cmd_verify(config, args.which, args.config)
        if args.command == "resolve":
            return cmd_resolve(config, args.config, explicit_g1sq="g1_squared" in given)
        channel = _given(tol=config.tol, n_points=config.grid_points)
        if args.command == "hf-check":
            return emit_checks(config, hellmann_feynman_check(config.params, n2=0, **channel))
        if args.command == "audit":
            emit_checks(config, bk_audit(config.params, **channel))
            return EXIT_PASS  # a failed entry is a finding on the published claims
    # LinAlgError subclasses ValueError but is a solver failure, not a usage error
    except (ConvergenceError, LinAlgError, ResolutionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
