"""Test-only closed-form counts of arrow-stable subspace tuples, against
which the exhaustive subrepresentation search is checked, and builders of
the representations they count.

- A representation with zero arrow maps has every subspace tuple stable,
  so at dimension vector k it has prod_x [n_x choose k_x]_p of them.
- A nilpotent one-loop representation of Jordan type lam has, for every
  partition mu inside lam, prod_{i>=1} p^(mu'_(i+1) (lam'_i - mu'_i))
  [lam'_i - mu'_(i+1) choose mu'_i - mu'_(i+1)]_p submodules of type mu
  (Birkhoff, Proc. London Math. Soc. 1935), where ' is the conjugate
  partition; its submodules of dimension k are those of the mu with
  |mu| = k.

It also keeps the whole-representation enumeration as it was written
first, one pool of matrices per arrow and itertools.product over them, as
the reference for the order of iter_all_reps.
"""

import itertools
from math import prod

from approxcat.matrix import Matrix, block_diag
from approxcat.quiver import loop_quiver
from approxcat.rep import Rep
from approxcat.search import _dim_vectors, gaussian_binomial, iter_matrices

LOOP = loop_quiver(1)


def partitions(n: int, top: int | None = None):
    """The partitions of n with parts at most top, parts descending."""
    top = n if top is None else top
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(lam) -> list:
    """lam'_i for i = 1, ..., lam_1: the number of parts of lam at least i."""
    return [sum(1 for part in lam if part >= i) for i in range(1, (lam[0] if lam else 0) + 1)]


def subpartitions(lam):
    """Every partition mu with mu_j <= lam_j for all j."""
    for mu in itertools.product(*(range(part + 1) for part in lam)):
        if all(a >= b for a, b in zip(mu, mu[1:])):
            yield tuple(part for part in mu if part)


def birkhoff_count(lam, mu, p: int) -> int:
    """The number of submodules of type mu in a nilpotent F_p[t]-module of
    type lam, for mu inside lam."""
    lc, mc = conjugate(lam), conjugate(mu)
    mc += [0] * (len(lc) + 1 - len(mc))
    return prod(p ** (mc[i + 1] * (lc[i] - mc[i]))
                * gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
                for i in range(len(lc)))


def jordan_counts(lam, p: int) -> dict:
    """Submodule dimension k -> number of submodules of a module of type lam."""
    counts: dict = {}
    for mu in subpartitions(lam):
        counts[sum(mu)] = counts.get(sum(mu), 0) + birkhoff_count(lam, mu, p)
    return counts


def zero_map_counts(dims, p: int) -> dict:
    """Dimension vector k -> number of subspace tuples with dim k_x at x."""
    return {k: prod(gaussian_binomial(n, kx, p) for n, kx in zip(dims, k))
            for k in itertools.product(*(range(n + 1) for n in dims))}


def jordan_rep(field, lam) -> Rep:
    """The one-loop representation of Jordan type lam: one block per part,
    the loop sending each basis vector of a block to the next."""
    blocks = [Matrix(field, n, n, [int(i == j + 1) for i in range(n) for j in range(n)])
              for n in lam]
    return Rep(LOOP, field, [sum(lam)], {"alpha1": block_diag(field, blocks)})


def ref_iter_all_reps(quiver, field, max_dims):
    """search.iter_all_reps before it stopped pooling the first arrow's
    matrices: product over every arrow's full pool, per dimension vector."""
    for dims in _dim_vectors(max_dims):
        arrow_shapes = [(a.id, dims[a.target], dims[a.source]) for a in quiver.arrows]
        pools = [list(iter_matrices(field, r, c)) for (_, r, c) in arrow_shapes]
        for maps_combo in itertools.product(*pools):
            maps = {aid: m for (aid, _, _), m in zip(arrow_shapes, maps_combo)}
            yield Rep(quiver, field, dims, maps)
