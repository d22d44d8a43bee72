"""Independent answers computed in plain integer arithmetic.

Nothing here touches approxcat: matrices are lists of rows of ints, and
every operation reduces mod p. The workloads compare approxcat's answers
with these.
"""


def matmul(a, b, p, m=None):
    """a @ b mod p for row lists, a n x k and b k x m. When k is 0 the row
    list b cannot show m, so pass it."""
    k = len(b)
    if m is None:
        m = len(b[0]) if k else 0
    return [
        [sum(row[t] * b[t][j] for t in range(k)) % p for j in range(m)]
        for row in a
    ]


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def nilpotency_index(a, p):
    """Least r >= 1 with a^r = 0 for a square row list, or 0 when a is not
    nilpotent. A 0 x 0 matrix has index 1."""
    n = len(a)
    power = a
    for r in range(1, n + 2):
        if is_zero(power):
            return r
        power = matmul(power, a, p)
    return 0


def power_vanishes(a, r, p):
    """Whether a^r = 0: on the one-loop quiver this is exactly membership in
    the r-fold extension closure of the simple."""
    index = nilpotency_index(a, p)
    return index != 0 and index <= r


def rank(a, p):
    """Rank of a row list over F_p, by Gaussian elimination."""
    rows = [list(r) for r in a]
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def factors(g_components, z_components, f_components, p):
    """Whether g o z = f vertex by vertex, for component lists of row lists."""
    return all(
        matmul(g, z, p, len(f[0]) if f else 0) == [list(row) for row in f]
        for g, z, f in zip(g_components, z_components, f_components)
    )


def bits_to_rows(bits, d):
    """The d x d 0/1 row list whose entry (i, j) is bit d*d-1-(d*i+j) of
    bits, so ascending bits run in the lexicographic order of the entries."""
    n = d * d
    flat = [(bits >> (n - 1 - k)) & 1 for k in range(n)]
    return [flat[i * d : (i + 1) * d] for i in range(d)]


def f2_nilpotency_index(bits, d):
    """nilpotency_index over F2 for the matrix bits_to_rows(bits, d), with
    each row held as a d-bit int, fast enough to classify thousands of
    random draws during set-up."""
    mask = (1 << d) - 1
    rows = [(bits >> (d * (d - 1 - i))) & mask for i in range(d)]

    def times(a, b):
        out = []
        for row in a:
            acc = 0
            for k in range(d):
                if row >> (d - 1 - k) & 1:
                    acc ^= b[k]
            out.append(acc)
        return out

    # a is nilpotent exactly when a^(2^k) = 0 for the first 2^k >= d; most
    # random draws fail this test after a few squarings
    square, exponent = rows, 1
    while exponent < d:
        square, exponent = times(square, square), exponent * 2
    if any(square):
        return 0
    power = rows
    for r in range(1, d + 1):
        if not any(power):
            return r
        power = times(power, rows)
    return d
