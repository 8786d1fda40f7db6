"""Golden series coefficients: every x^n coefficient of the two expansions
at order 40, as a gate.

The digests below were recorded with the bivariate ``Fraction`` series
algebra (order-by-order series division and term-wise integration).  Any
rewrite of the expansion must reproduce every rational exactly; a changed
digest is a wrong coefficient, not a test to update.  The series hold the
integer rows n! [x^n]; the digest reads each entry as the reduced rational
row[k] / n! and leaves out a row's trailing zeros, as the recording did.
"""

import hashlib
from fractions import Fraction
from math import factorial

import pytest

from racerank.series import eulerian_gf, second_gf_expand

ORDER = 40
DIGESTS = {
    eulerian_gf: "4dbcc2becc8a9290cdb29d0f28d17c1415f86f245802bbdc6786050ff0f474b3",
    second_gf_expand: "aeae5792120fb2e69677c77fd36a893c4ab99002905e15442cd9856379efe3c8",
}


def _coefficients_digest(gf) -> str:
    text = ""
    for n, row in enumerate(gf(ORDER).rows):
        coeffs = [Fraction(c, factorial(n)) for c in row]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        text += f"{n}: " + " ".join(map(str, coeffs)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("gf", list(DIGESTS), ids=lambda gf: gf.__name__)
def test_order_40_coefficients_golden(gf):
    assert _coefficients_digest(gf) == DIGESTS[gf]
