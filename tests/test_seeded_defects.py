"""Seeded defects: every row shows a gating check failing under the defect it guards.

Each row seeds one defect with ``monkeypatch`` (no source change), runs the
command line in-process with a state file, and asserts that exactly the named
report entries fail and the exit code: 1, or 0 for ``audit``, which always
exits 0.  ``test_clean_run_passes`` runs each argv of the table once without
any defect and asserts that every entry passes.  The ratio quoted for a row
is its worst |measured - reference| over the tolerance.

Defects that no command catches today.  They are listed here, not marked as
expected failures; the change that makes one caught adds its row.  The 1D
commands size each channel pair to its check's tolerance from a pilot of
coarse grids that the defect acts on too, so a defect that raises a pair's
error also sizes that pair finer, up to the (2001, 4003) pair; none of
these became caught when the pairs were sized:

- ``numsolve.richardson`` returning the fine value, on ``verify jacobi
  --g1sq 0.3``: the worst level reads 0.99 of its tolerance, and 0.19 on
  ``verify spherical --g1sq 0.3``.
- the 3D X2 barrier 1% too strong (``grid3d.inverse_square_diag``), on
  ``verify 3d`` at g1^2 = 3: 0.96.
- c/x^2 sampled at every b in place of ``numsolve.inverse_square_diag``, on
  ``verify jacobi --g1sq 0.3``: 0.89, and 0.54 on ``verify spherical --g1sq
  0.3``, as at a fixed 2001 points.
- the ``kinetic_prefactor`` argument of ``numsolve.inverse_square_diag``
  scaled by 1.1 at every call site (the oscillator channels, both angular
  poles and the 3D X2 barrier), so the stencil annihilates the wrong power
  x^b: ``verify 3d`` at g1^2 = 3 reads 0.098 (0.067 clean), ``hf-check
  --g1sq 0.3`` 0.018 (0.0053, from ``hf-step-halving``), ``verify jacobi
  --g1sq 0.3`` 1.5e-2 (6.1e-5) and ``verify spherical`` at 3 3.5e-4
  (1.8e-5).
"""

import json
import math

import numpy as np
import pytest

from wolfes4 import cli, grid3d, numsolve, verify
from wolfes4.numsolve import ChannelKind, TridiagonalMatrix


def power_step_at_every_b(monkeypatch):
    # the exact-local-power diagonal past b = 3, where its excess grows as b^4
    def diag(j, coupling, kinetic_prefactor, h):
        b = 0.5 + math.sqrt(0.25 + coupling / kinetic_prefactor)
        return kinetic_prefactor / h**2 * numsolve._power_step(j, b)

    monkeypatch.setattr(numsolve, "inverse_square_diag", diag)


def mirror_fold_without_sqrt2(monkeypatch):
    real = numsolve._mirror_block

    def block(T, sign):
        folded = real(T, sign)
        if T.dimension % 2 and sign > 0:
            folded.offdiag[-1] /= math.sqrt(2.0)
        return folded

    monkeypatch.setattr(numsolve, "_mirror_block", block)


def no_extrapolation_in(owner):
    def seed(monkeypatch):
        monkeypatch.setattr(owner, "richardson", lambda coarse, fine, ratio: np.asarray(fine))

    return seed


def theta_diagonal_shifted(monkeypatch):
    real = numsolve.channel_tridiag

    def tridiag(spec, params, grid):
        T = real(spec, params, grid)
        if spec.kind is ChannelKind.ANGULAR_THETA:
            return TridiagonalMatrix(T.diag + 1e-3, T.offdiag)
        return T

    monkeypatch.setattr(numsolve, "channel_tridiag", tridiag)


def grid3d_barrier_scaled(monkeypatch):
    real = grid3d.inverse_square_diag
    monkeypatch.setattr(grid3d, "inverse_square_diag",
                        lambda j, coupling, kappa, h: real(j, 1.02 * coupling, kappa, h))


JACOBI_LEVELS = [f"jacobi-level[N={n}]" for n in range(7)]
SPHERICAL_GROUND = ["spherical-ground", "route-pair[0]"]
GRID3D_LEVELS = ["grid3d-level[N=0]", "grid3d-level[N=1]"]
HF_EXPECTATION = ["hf-expectation-vs-closed", "hf-fd-vs-expectation"]

#: defect, argv, the entries that fail, exit code; each row's ratio in its comment
ROWS = {
    # 207
    "power-step-jacobi": (power_step_at_every_b, ("verify", "jacobi", "--g1sq", "3000"),
                          JACOBI_LEVELS, cli.EXIT_FAIL),
    # 104
    "power-step-spherical": (power_step_at_every_b, ("verify", "spherical", "--g1sq", "3000"),
                             SPHERICAL_GROUND, cli.EXIT_FAIL),
    # 6.6e3
    "fold-jacobi": (mirror_fold_without_sqrt2, ("verify", "jacobi"),
                    JACOBI_LEVELS, cli.EXIT_FAIL),
    # 2.7e4
    "fold-spherical": (mirror_fold_without_sqrt2, ("verify", "spherical"),
                       SPHERICAL_GROUND, cli.EXIT_FAIL),
    # f^2_1 - f^2_0 falls to 0.0042, below the 1 the entry asks for
    "fold-audit": (mirror_fold_without_sqrt2, ("audit",),
                   ["audit-f2-not-all-equal"], cli.EXIT_PASS),
    # 2.66
    "pair-not-extrapolated-3d": (no_extrapolation_in(numsolve),
                                 ("verify", "3d", "--grid-points", "41",
                                  "--domain-extent", "5.5"),
                                 GRID3D_LEVELS, cli.EXIT_FAIL),
    # 1.66
    "expectation-not-extrapolated": (no_extrapolation_in(verify), ("hf-check", "--g1sq", "0.3"),
                                     HF_EXPECTATION, cli.EXIT_FAIL),
    # 2.36
    "theta-diagonal-shifted": (theta_diagonal_shifted, ("verify", "spherical"),
                               SPHERICAL_GROUND, cli.EXIT_FAIL),
    # 1.85, at the defaults: 61 points over 7, g1^2 = 3
    "grid3d-barrier-2pc": (grid3d_barrier_scaled, ("verify", "3d"),
                           GRID3D_LEVELS, cli.EXIT_FAIL),
}


@pytest.fixture()
def stated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli.write_state_file(str(tmp_path / cli.STATE_FILE_NAME), 1.0, "candidate")


def run(capsys, argv):
    code = cli.main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)["checks"]


@pytest.mark.parametrize("row", ROWS)
def test_defect_fails_its_entries(stated, capsys, monkeypatch, row):
    seed, argv, failing, code = ROWS[row]
    seed(monkeypatch)
    got, checks = run(capsys, argv)
    assert [c["name"] for c in checks if c["status"] == "fail"] == failing
    assert got == code


@pytest.mark.parametrize("argv", sorted({argv for _, argv, _, _ in ROWS.values()}))
def test_clean_run_passes(stated, capsys, argv):
    code, checks = run(capsys, argv)
    assert code == cli.EXIT_PASS
    assert all(c["status"] == "pass" for c in checks)
