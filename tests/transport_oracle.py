"""Measure transport through a carrying matrix, for checking splits.

`transport(elem, m)` carries a measure on the later track back to the
earlier one: weight r is the sum over columns c of elem[r][c] * m(c).  The
library never transports a measure this way (every split writes its new
measure directly), so the tests use it to check m_pre == elem * m_post.
"""

from splitseq.numberfield import nf_const
from splitseq.splitting import CarryingMatrix
from splitseq.traintrack import Measure


def transport(elem: CarryingMatrix, m: Measure) -> Measure:
    if set(m.names) != set(elem.cols):
        raise ValueError("measure branches do not match matrix columns")
    zero = nf_const(m.field, 0)
    out = {}
    for r, row in zip(elem.rows, elem.entries):
        terms = (nf_const(m.field, k) * m.weight(c) for c, k in zip(elem.cols, row) if k)
        out[r] = sum(terms, zero)
    return Measure.of(m.field, out)
