import random
from fractions import Fraction

import pytest

from approxcat.errors import ApproxcatError, FieldMismatchError, ShapeError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix, block_diag, hstack, vstack

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)


def M(field, rows):
    return Matrix.from_rows(field, rows)


class TestFieldSpec:
    def test_labels_round_trip(self):
        for f in (Q, F2, F5, FieldSpec.prime(7)):
            assert FieldSpec.from_label(f.label) == f

    def test_rejects_composite_modulus(self):
        with pytest.raises(ApproxcatError):
            FieldSpec.prime(6)

    @pytest.mark.parametrize("label", ["F9", "F15", "F25", "F49"])
    def test_label_refuses_odd_composite(self, label):
        # odd moduli reach the trial division by odd divisors
        with pytest.raises(ApproxcatError):
            FieldSpec.from_label(label)

    def test_coerce_rational_lowest_terms(self):
        x = Q.coerce("2/4")
        assert x == Fraction(1, 2)
        assert x.denominator == 2
        y = Q.coerce(Fraction(-3, -6))
        assert y.numerator == 1 and y.denominator == 2

    def test_coerce_prime_wraps(self):
        assert F5.coerce(-1) == 4
        assert F5.coerce(7) == 2

    def test_coerce_reads_the_written_string_form(self):
        assert Q.coerce("-3/6") == Fraction(-1, 2)
        assert Q.coerce("+7") == 7
        assert F5.coerce("-1") == 4
        with pytest.raises(ApproxcatError):
            F5.coerce("1/2")

    @pytest.mark.parametrize("text", ["1/0", "1e999999999", "1.5", " 1", "1_0", "", "9" * 5000])
    def test_coerce_refuses_other_strings(self, text):
        # each refusal is an ApproxcatError, and none builds a huge number
        for field in (Q, F5):
            with pytest.raises(ApproxcatError):
                field.coerce(text)

    def test_inverse(self):
        assert F5.mul(F5.inv(3), 3) == 1
        assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)
        with pytest.raises(ZeroDivisionError):
            Q.inv(Fraction(0))


class TestRref:
    def test_frozen_f5_example(self):
        # hand-computed: row2 is a multiple of row1 over F5
        R, pivots = M(F5, [[2, 4], [1, 2]]).rref()
        assert R.to_lists() == [[1, 2], [0, 0]]
        assert pivots == (0,)

    def test_idempotent(self):
        a = M(Q, [[2, 4, 1], [1, 2, 0], [0, 0, 3]])
        R, piv = a.rref()
        R2, piv2 = Matrix.from_rows(Q, R.to_lists()).rref()
        assert R2 == R and piv2 == piv

    def test_deterministic_rebuild(self):
        rows = [[1, 3, 1], [2, 1, 0], [0, 5, 2]]
        assert M(F5, rows).rref() == M(F5, rows).rref()

    def test_zero_dims(self):
        R, piv = Matrix(Q, 0, 3).rref()
        assert (R.rows, R.cols, piv) == (0, 3, ())
        R, piv = Matrix(Q, 3, 0).rref()
        assert (R.rows, R.cols, piv) == (3, 0, ())


class TestKernelImageSolve:
    def test_frozen_kernel_f2(self):
        k = M(F2, [[1, 1], [1, 1]]).kernel_basis()
        assert k.to_lists() == [[1], [1]]

    def test_frozen_image_q(self):
        img = M(Q, [[1, 2], [2, 4]]).image_basis()
        assert img.to_lists() == [[1], [2]]

    def test_frozen_solve_f2_free_vars_zero(self):
        x = M(F2, [[1, 1]]).solve(Matrix.column(F2, [1]))
        assert x.to_lists() == [[1], [0]]

    def test_solve_inconsistent(self):
        a = M(Q, [[1], [0]])
        assert a.solve(Matrix.column(Q, [0, 1])) is None

    def test_solve_multi_rhs(self):
        a = M(Q, [[1, 0], [1, 1]])
        b = M(Q, [[1, 0], [0, 1]])
        x = a.solve(b)
        assert a @ x == b

    def test_kernel_of_wide_zero(self):
        k = Matrix.zeros(F2, 0, 4).kernel_basis()
        assert k == Matrix.identity(F2, 4)

    def test_kernel_exhaustive_f2_oracle(self):
        # independent oracle: enumerate all of F2^cols and count solutions
        rng = random.Random(2024)
        for _ in range(60):
            rows = rng.randrange(0, 4)
            cols = rng.randrange(0, 4)
            a = Matrix(F2, rows, cols, [rng.randrange(2) for _ in range(rows * cols)])
            ker = a.kernel_basis()
            members = 0
            for bits in range(2 ** cols):
                v = Matrix.column(F2, [(bits >> i) & 1 for i in range(cols)])
                if (a @ v).is_zero():
                    members += 1
                    assert ker.solve(v) is not None
            assert members == 2 ** ker.cols

    def test_rank_nullity_sweep(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randrange(0, 6)
            cols = rng.randrange(0, 6)
            a = Matrix(F5, rows, cols, [rng.randrange(5) for _ in range(rows * cols)])
            ker = a.kernel_basis()
            assert a.rank() + ker.cols == cols
            if ker.cols:
                assert (a @ ker).is_zero()
            img = a.image_basis()
            assert img.rank() == img.cols == a.rank()

    def test_solve_round_trip_q(self):
        rng = random.Random(11)
        for _ in range(30):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            a = Matrix(Q, rows, cols, [Fraction(rng.randrange(-3, 4)) for _ in range(rows * cols)])
            x = Matrix.column(Q, [Fraction(rng.randrange(-3, 4)) for _ in range(cols)])
            b = a @ x
            sol = a.solve(b)
            assert sol is not None and a @ sol == b


class TestStructure:
    def test_product_shapes_and_identity(self):
        a = M(Q, [[1, 2, 3], [4, 5, 6]])
        assert a @ Matrix.identity(Q, 3) == a
        assert Matrix.identity(Q, 2) @ a == a
        z = Matrix(Q, 0, 2) @ a
        assert (z.rows, z.cols) == (0, 3)

    def test_product_mismatch(self):
        with pytest.raises(ShapeError):
            M(Q, [[1]]) @ M(Q, [[1, 2], [3, 4]])
        with pytest.raises(FieldMismatchError):
            M(Q, [[1]]) @ M(F2, [[1]])

    def test_transpose_involution(self):
        a = M(F5, [[1, 2, 3], [4, 0, 1]])
        assert a.transpose().transpose() == a

    def test_stacking(self):
        a = M(Q, [[1, 2]])
        b = M(Q, [[3, 4], [5, 6]])
        assert vstack([a, b]).to_lists() == [[1, 2], [3, 4], [5, 6]]
        assert hstack([a.transpose(), b]).to_lists() == [[1, 3, 4], [2, 5, 6]]

    def test_block_diag(self):
        d = block_diag(Q, [M(Q, [[1]]), M(Q, [[2, 0], [0, 3]])])
        assert d.to_lists() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
        empty = block_diag(Q, [])
        assert (empty.rows, empty.cols) == (0, 0)
        with_zero = block_diag(Q, [Matrix(Q, 0, 2), M(Q, [[1]])])
        assert with_zero.to_lists() == [[0, 0, 1]]

    def test_invertibility(self):
        assert M(Q, [[1, 1], [0, 1]]).is_invertible()
        assert not M(F2, [[1, 1], [1, 1]]).is_invertible()
        assert Matrix.identity(F2, 0).is_invertible()

    def test_take(self):
        a = M(Q, [[1, 2, 3], [4, 5, 6]])
        assert a.take_rows([1]).to_lists() == [[4, 5, 6]]
        assert a.take_cols([2, 0]).to_lists() == [[3, 1], [6, 4]]


class TestJson:
    def test_round_trip_rationals(self):
        a = M(Q, [[Fraction(1, 2), 3], [0, Fraction(-7, 3)]])
        data = a.to_jsonable()
        assert data == [["1/2", 3], [0, "-7/3"]]
        assert Matrix.from_jsonable(Q, data) == a

    def test_round_trip_prime(self):
        a = M(F5, [[1, 4], [2, 0]])
        assert Matrix.from_jsonable(F5, a.to_jsonable()) == a

    def test_zero_dim_with_hint(self):
        a = Matrix(Q, 3, 0)
        back = Matrix.from_jsonable(Q, a.to_jsonable(), rows=3, cols=0)
        assert back == a
        b = Matrix(Q, 0, 2)
        assert Matrix.from_jsonable(Q, b.to_jsonable(), rows=0, cols=2) == b

    def test_shape_hint_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix.from_jsonable(Q, [[1, 2]], rows=2, cols=1)
