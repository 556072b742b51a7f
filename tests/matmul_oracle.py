"""Dense reference for `splitseq.numberfield._mat_mul`.

`mat_mul` is the inner-product form the library used before its product
accumulated rows over nonzero entries: entry (i, j) is the sum of
a[i][k] * b[k][j] over every k.
"""


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """Integer matrix product a * b, as a tuple of row tuples."""
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)
