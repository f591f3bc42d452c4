"""Three independent values of dE/d(g1^2) on one barrier-oscillator level.

A central difference of the numeric eigenvalue, the eigenvector expectation
of the barrier operator 1/(6 X2^2), and the closed form omega/(6 delta) must
coincide -- and be positive, which is what rules out any level formula that
ignores the barrier strength.

Run:  python demos/hellmann_feynman.py
"""

from wolfes4.model import ModelParams, hf_derivative_closed_form
from wolfes4.verify import hellmann_feynman_check


def main() -> None:
    for g in (1.0, 3.0, 7.5):
        params = ModelParams(omega=1.0, g1_squared=g)
        report = hellmann_feynman_check(params, n2=0)
        by_name = {c.name: c for c in report.checks}
        print(f"g1^2 = {g}:")
        print(f"  finite difference : {by_name['hf-fd-vs-closed'].measured:.9f}")
        print(f"  expectation value : {by_name['hf-expectation-vs-closed'].measured:.9f}")
        print(f"  closed form       : {hf_derivative_closed_form(params):.9f}")
        print(f"  -> {'PASS' if report.passed else 'FAIL'}\n")


if __name__ == "__main__":
    main()
