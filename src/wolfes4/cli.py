"""Batch command-line surface: spectra, verification suites, reports.

Commands: ``spectrum``, ``verify {jacobi|spherical|3d|all}``, ``hf-check``,
``resolve``, ``audit``.  Exit codes: 0 = pass, 1 = verification failure
(or a 3D eigensolve that did not converge), 2 = usage or configuration error.  Output is JSON (default) or CSV with a
fixed float format, so identical configurations produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import dataclass, fields

from .grid3d import MAX_G1_SQUARED, MAX_POINTS_PER_AXIS, MIN_POINTS_PER_AXIS
from .model import (
    ModelParams,
    SHO_OFFSET_CANDIDATES,
    enumerate_spectrum,
)
from .numsolve import ConvergenceError
from .verify import (
    RESOLUTION_LEVELS,
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
#: Largest --g1sq.  The 1D routes pass to 3e4; from 5e4 the ground state's
#: peak nears the half-line box edge.  The 3D grid takes less.
MAX_G1SQ = 1e4


@dataclass
class RunConfig:
    """Settings of one command.

    ``grid_points``, ``domain_extent`` and ``tol`` stay None unless a flag or
    the config file sets them; the check a command calls then keeps its own
    default, which differs between the 1D channels and the 3D grid.
    ``params``, the ModelParams of ``omega`` and ``g1_squared``, is built
    once at construction and validates them.
    """

    omega: float = 1.0
    g1_squared: float = 3.0
    max_quanta: int = 6
    grid_points: int | None = None
    domain_extent: float | None = None
    tol: float | None = None
    sector_multiplicity: int = 1
    format: str = "json"
    out: str | None = None

    def __post_init__(self) -> None:
        self.params = ModelParams(omega=self.omega, g1_squared=self.g1_squared)
        if self.g1_squared > MAX_G1SQ:
            raise ValueError(f"--g1sq must be at most {MAX_G1SQ:g}, the admissible "
                             f"coupling range, got {self.g1_squared:g}")
        if not 0 <= self.max_quanta <= MAX_QUANTA:
            raise ValueError(f"max-quanta must lie in [0, {MAX_QUANTA}], "
                             f"got {self.max_quanta}")
        if self.grid_points is not None and self.grid_points < 3:
            raise ValueError("grid-points must be at least 3")
        if self.domain_extent is not None and self.domain_extent <= 0:
            raise ValueError("domain-extent must be positive")
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.sector_multiplicity not in (1, 2):
            raise ValueError("sector-mult must be 1 or 2")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")


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
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)


def _csv_field(x) -> str:
    if isinstance(x, float):
        x = format_float(x)
    s = str(x)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def to_csv(header: list[str], rows: list[list]) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_csv_field(x) for x in row) + "\n")
    return out.getvalue()


def report_payload(config: RunConfig, report: VerificationReport,
                   resolved: dict | None) -> dict:
    payload = {
        "params": {"omega": config.omega, "g1_squared": config.g1_squared},
        "checks": [
            {"name": c.name, "status": c.status, "measured": c.measured,
             "reference": c.reference, "tolerance": c.tolerance,
             "provenance": c.provenance}
            for c in report.checks
        ],
    }
    if resolved is not None:
        payload["resolved"] = resolved
    return payload


def render_checks(config: RunConfig, report: VerificationReport,
                  resolved: dict | None) -> str:
    if config.format == "json":
        return to_json(report_payload(config, report, resolved)) + "\n"
    rows = [[c.name, c.status, c.measured, c.reference, c.tolerance, c.provenance]
            for c in report.checks]
    return to_csv(["name", "status", "measured", "reference", "tolerance",
                   "provenance"], rows)


def emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- config and state files -------------------------------------------------

_KEY_ALIASES = {
    "g1sq": "g1_squared",
    "sector_mult": "sector_multiplicity",
}
_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def parse_key_value_file(path: str) -> dict:
    """Plain ``key = value`` lines with ``#`` comments."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            key = _KEY_ALIASES.get(key.replace("-", "_"), key.replace("-", "_"))
            values[key] = val
    return values


def load_config_file(path: str) -> dict:
    raw = parse_key_value_file(path)
    out: dict = {}
    casts = {
        "omega": float, "g1_squared": float, "max_quanta": int,
        "grid_points": int, "domain_extent": float, "tol": float,
        "sector_multiplicity": int, "format": str, "out": str,
    }
    for key, val in raw.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown configuration key {key!r}")
        out[key] = casts[key](val)
    return out


def state_file_path(config_path: str | None) -> str:
    base = os.path.dirname(os.path.abspath(config_path)) if config_path else os.getcwd()
    return os.path.join(base, STATE_FILE_NAME)


def write_state_file(path: str, offset: float, rule: str) -> None:
    text = ("# resolved formula constants (written by `wolfes4 resolve`)\n"
            f"sho_offset = {offset:g}\n"
            f"radial_rule = {rule}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_state_file(path: str) -> tuple[float, str] | None:
    if not os.path.exists(path):
        return None
    raw = parse_key_value_file(path)
    try:
        offset = float(raw["sho_offset"])
        rule = raw["radial_rule"]
    except (KeyError, ValueError):
        return None
    if offset not in SHO_OFFSET_CANDIDATES or rule not in ("published", "candidate"):
        return None
    return offset, rule


# -- argument parsing -------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--g1sq", type=float, default=None)
    p.add_argument("--max-quanta", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--domain-extent", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--sector-mult", type=int, choices=(1, 2), default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)


def build_parser() -> argparse.ArgumentParser:
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
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    p = sub.add_parser("verify", help="route-equivalence verification suites")
    p.add_argument("which", choices=("jacobi", "spherical", "3d", "all"))
    _add_common_flags(p)
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    flag_values = {
        "omega": args.omega,
        "g1_squared": args.g1sq,
        "max_quanta": args.max_quanta,
        "grid_points": args.grid_points,
        "domain_extent": args.domain_extent,
        "tol": args.tol,
        "sector_multiplicity": args.sector_mult,
        "format": args.format,
        "out": args.out,
    }
    merged: dict = {}
    for f in fields(RunConfig):
        if flag_values.get(f.name) is not None:
            merged[f.name] = flag_values[f.name]
        elif f.name in file_values:
            merged[f.name] = file_values[f.name]
    return RunConfig(**merged)


# -- commands ---------------------------------------------------------------


def _given(**kwargs) -> dict:
    """The keyword arguments the user set; the rest keep the callee's defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _require_grid_points(config: RunConfig, least: int, where: str,
                         most: int | None = None) -> None:
    """Reject a --grid-points value the command cannot use, before any solve runs."""
    n = config.grid_points
    if n is None or least <= n and (most is None or n <= most):
        return
    bound = f"at least {least}" if most is None else f"in [{least}, {most}]"
    raise ValueError(f"--grid-points must be {bound} for {where}, got {n}")


def _resolution(config: RunConfig, config_path: str | None):
    """Stored resolution if present, otherwise computed in memory."""
    stored = load_state_file(state_file_path(config_path))
    if stored is not None:
        return stored[0], stored[1], None
    offset, rule, report = resolve_formula_offsets()
    return offset, rule, report


def cmd_spectrum(config: RunConfig, config_path: str | None) -> int:
    stored = load_state_file(state_file_path(config_path))
    if stored is None:
        offset = 0.5
        resolved = None
        sys.stderr.write(
            "warning: formula resolution has not been run; printing the "
            "published level formula (offset 1/2). Run `wolfes4 resolve`.\n")
    else:
        offset, rule = stored
        resolved = {"sho_offset": offset, "radial_rule": rule}
    table = enumerate_spectrum(config.params, config.max_quanta, offset,
                               config.sector_multiplicity)
    levels = [
        {"N": lv.members[0].total_quanta, "energy": lv.value,
         "degeneracy": lv.degeneracy,
         "members": sorted({(t.n1, t.n2, t.n3) for t in lv.members})}
        for lv in table.levels
    ]
    if config.format == "json":
        payload = {"params": {"omega": config.omega, "g1_squared": config.g1_squared}}
        if resolved is not None:
            payload["resolved"] = resolved
        payload["levels"] = [
            {**lv, "members": [list(m) for m in lv["members"]]} for lv in levels
        ]
        emit(config, to_json(payload) + "\n")
    else:
        rows = [[lv["N"], lv["energy"], lv["degeneracy"],
                 ";".join(f"({a},{b},{c})" for a, b, c in lv["members"])]
                for lv in levels]
        emit(config, to_csv(["N", "energy", "degeneracy", "members"], rows))
    return EXIT_PASS


def cmd_verify(config: RunConfig, which: str, config_path: str | None) -> int:
    n_cap = min(config.max_quanta, 4)
    # a 1D leg asks a channel for one level more than the largest class it checks
    if which in ("jacobi", "all"):
        _require_grid_points(config, config.max_quanta + 1, "verify jacobi")
    if which == "spherical":
        _require_grid_points(config, n_cap + 1, "verify spherical")
    if which in ("3d", "all"):
        _require_grid_points(config, MIN_POINTS_PER_AXIS, "the 3D grid",
                             MAX_POINTS_PER_AXIS)
        if config.g1_squared > MAX_G1_SQUARED:
            raise ValueError(f"--g1sq must be at most {MAX_G1_SQUARED:g} for the 3D grid, "
                             f"got {config.g1_squared:g}")
    try:
        offset, rule, _ = _resolution(config, config_path)
    except ResolutionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    resolved = {"sho_offset": offset, "radial_rule": rule}
    report = VerificationReport()
    channel = _given(tol=config.tol, n_points=config.grid_points)
    if which in ("jacobi", "all"):
        report.extend(verify_jacobi_route(config.params, config.max_quanta,
                                          offset=offset, **channel))
    if which in ("spherical", "all"):
        report.extend(verify_spherical_route(
            config.params, (n_cap, n_cap, n_cap // 2), offset=offset, **channel))
    if which in ("3d", "all"):
        report.extend(verify_3d(config.params, k=6, offset=offset,
                                **_given(tol=config.tol, n_per_axis=config.grid_points,
                                         extent=config.domain_extent)))
    emit(config, render_checks(config, report, resolved))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_hf_check(config: RunConfig, config_path: str | None) -> int:
    if config.g1_squared == 0:
        sys.stderr.write(
            "error: hf-check needs g1sq > 0 so the central difference stays "
            "inside the admissible coupling range\n")
        return EXIT_USAGE
    report = hellmann_feynman_check(
        config.params, n2=0, **_given(tol=config.tol, n_points=config.grid_points))
    emit(config, render_checks(config, report, None))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_resolve(config: RunConfig, config_path: str | None,
                explicit_g1sq: bool) -> int:
    _require_grid_points(config, RESOLUTION_LEVELS, "resolve")
    if explicit_g1sq:
        sys.stderr.write(
            "warning: resolution run on a reduced sweep (single g1sq value); "
            "the standard sweep spans g1sq in {0, 1, 3, 7.5}\n")
        params_list = [config.params]
    else:
        params_list = None
    try:
        offset, rule, report = resolve_formula_offsets(
            params_list, **_given(tol=config.tol, n_points=config.grid_points))
    except ResolutionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    write_state_file(state_file_path(config_path), offset, rule)
    resolved = {"sho_offset": offset, "radial_rule": rule}
    emit(config, render_checks(config, report, resolved))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_audit(config: RunConfig, config_path: str | None) -> int:
    report = bk_audit(config.params,
                      **_given(tol=config.tol, n_points=config.grid_points))
    emit(config, render_checks(config, report, None))
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = make_config(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        if args.command == "spectrum":
            return cmd_spectrum(config, args.config)
        if args.command == "verify":
            return cmd_verify(config, args.which, args.config)
        if args.command == "hf-check":
            return cmd_hf_check(config, args.config)
        if args.command == "resolve":
            from_file = args.config and "g1_squared" in load_config_file(args.config)
            return cmd_resolve(config, args.config,
                               explicit_g1sq=args.g1sq is not None or bool(from_file))
        if args.command == "audit":
            return cmd_audit(config, args.config)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
