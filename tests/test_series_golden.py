"""Golden series coefficients: every x^n coefficient of the three expansions
at order 40, as a gate.

The digests below were recorded with the bivariate ``Fraction`` series
algebra (order-by-order series division and term-wise integration).  Any
rewrite of the expansion must reproduce every rational exactly; a changed
digest is a wrong coefficient, not a test to update.
"""

import hashlib

import pytest

from racerank.series import eulerian_gf, middle_score_gf, second_gf_expand

ORDER = 40
DIGESTS = {
    eulerian_gf: "4dbcc2becc8a9290cdb29d0f28d17c1415f86f245802bbdc6786050ff0f474b3",
    middle_score_gf: "88236149a27a32deaadd227339d7b80c1ad69ad8fe05614bc3d5025f35161edf",
    second_gf_expand: "aeae5792120fb2e69677c77fd36a893c4ab99002905e15442cd9856379efe3c8",
}


def _coefficients_digest(gf) -> str:
    text = "".join(
        f"{n}: " + " ".join(map(str, poly.coeffs)) + "\n"
        for n, poly in enumerate(gf(ORDER).coeffs)
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("gf", list(DIGESTS), ids=lambda gf: gf.__name__)
def test_order_40_coefficients_golden(gf):
    assert _coefficients_digest(gf) == DIGESTS[gf]
