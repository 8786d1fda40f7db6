"""Golden exact rows: both closed forms at n_b = 60, every score, as a gate.

The digests below were recorded with the per-entry ``Fraction`` evaluation
of each closed form.  Any rewrite of the evaluation must reproduce every
rational exactly; a changed digest is a wrong distribution, not a test to
update.
"""

import hashlib

import pytest

from racerank.two_race import full_distribution, stirling_form_distribution

N_B = 60
# Both routes give the same rows, so they share one digest.
ROWS_DIGEST = "78f13ec058e9426906826eabd0b42e068de429619bbe1a57cb8d41e1edeff9af"


def _rows_digest(route) -> str:
    text = "".join(
        f"{d.n_b} {d.n_t}: " + " ".join(map(str, d.probs)) + "\n"
        for d in (route(N_B, n_t) for n_t in range(2, 2 * N_B + 2))
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("route", [full_distribution, stirling_form_distribution])
def test_n_b60_rows_golden(route):
    assert _rows_digest(route) == ROWS_DIGEST
