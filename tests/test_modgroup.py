import pytest

from cayleyprop.modgroup import generators, right_action, sl2_order
from oracles import Mat2Z, enumerate_sl2_bruteforce, mat_mul


def M(a, b, c, d, n):
    return Mat2Z(a, b, c, d, n)


class TestMat2Z:
    def test_entries_reduced(self):
        m = M(4, 3, 3, 4, 3)
        assert m.entries() == (1, 0, 0, 1)

    def test_rejects_bad_determinant(self):
        with pytest.raises(ValueError, match="determinant"):
            M(1, 0, 0, 2, 3)

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError, match="modulus"):
            M(1, 0, 0, 1, 1)

    def test_hashable(self):
        assert len({M(1, 1, 0, 1, 5), M(1, 1, 0, 1, 5)}) == 1

    def test_inverse(self):
        m = M(2, 1, 1, 1, 3)
        assert mat_mul(m, m.inverse()) == Mat2Z.identity(3)
        assert mat_mul(m.inverse(), m) == Mat2Z.identity(3)


class TestMatMul:
    def test_identity_neutral(self):
        eye = Mat2Z.identity(3)
        assert mat_mul(eye, eye) == eye

    def test_generator_times_inverse(self):
        assert mat_mul(M(1, 1, 0, 1, 3), M(1, 2, 0, 1, 3)) == Mat2Z.identity(3)

    def test_hand_product(self):
        # [[1,1],[0,1]] * [[1,0],[1,1]] mod 3
        got = mat_mul(M(1, 1, 0, 1, 3), M(1, 0, 1, 1, 3))
        assert got.entries() == (2, 1, 1, 1)
        assert (got.a * got.d - got.b * got.c) % 3 == 1

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mat_mul(Mat2Z.identity(3), Mat2Z.identity(5))

    def test_associative_on_sampled_triples(self):
        elems = enumerate_sl2_bruteforce(5)
        sample = elems[:: max(1, len(elems) // 8)]
        for x in sample:
            for y in sample:
                for z in sample:
                    assert mat_mul(mat_mul(x, y), z) == mat_mul(x, mat_mul(y, z))

    def test_identity_two_sided(self):
        eye = Mat2Z.identity(7)
        for g in (Mat2Z(*e, 7) for e in generators(7)):
            assert mat_mul(eye, g) == g
            assert mat_mul(g, eye) == g


class TestOrder:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 6), (3, 24), (4, 48), (5, 120), (6, 144), (7, 336), (8, 384)],
    )
    def test_known_orders(self, n, expected):
        assert sl2_order(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sl2_order(0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_bruteforce(self, n):
        assert len(enumerate_sl2_bruteforce(n)) == sl2_order(n)

    def test_multiplicative_over_coprime_factors(self):
        for a, b in [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (2, 9)]:
            assert sl2_order(a * b) == sl2_order(a) * sl2_order(b)


class TestEnumerate:
    def test_small_counts(self):
        assert len(enumerate_sl2_bruteforce(2)) == 6
        assert len(enumerate_sl2_bruteforce(3)) == 24
        assert len(enumerate_sl2_bruteforce(4)) == 48

    def test_lexicographic_and_unique(self):
        elems = enumerate_sl2_bruteforce(4)
        keys = [m.entries() for m in elems]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            enumerate_sl2_bruteforce(1)
        with pytest.raises(ValueError):
            enumerate_sl2_bruteforce(21)


class TestGenerators:
    def test_four_distinct_at_n3(self):
        gens = generators(3)
        assert gens == [(1, 1, 0, 1), (1, 2, 0, 1), (1, 0, 1, 1), (1, 0, 2, 1)]

    def test_two_distinct_at_n2(self):
        assert generators(2) == [(1, 1, 0, 1), (1, 0, 1, 1)]

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_residue_tuples_of_unit_determinant(self, n):
        for g in generators(n):
            assert type(g) is tuple and len(g) == 4
            assert all(type(x) is int and 0 <= x < n for x in g)
            a, b, c, d = g
            assert (a * d - b * c) % n == 1
            # the same element as the validating matrix class
            assert Mat2Z(*g, n).entries() == g

    def test_no_identity_member(self):
        for n in (2, 3, 5, 7):
            assert (1, 0, 0, 1) not in generators(n)

    def test_closed_under_inverse(self):
        for n in (2, 3, 5, 8):
            gens = generators(n)
            for a, b, c, d in gens:
                # det == 1, so the adjugate, reduced mod n, is the inverse
                assert (d, -b % n, -c % n, a) in gens

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            generators(1)


class TestRightAction:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_the_oracle_product_with_each_generator(self, n):
        # the elementary matrices, stated apart from the action; at n = 2
        # the +1 and -1 residues coincide and dict.fromkeys keeps one of each
        gens = dict.fromkeys(
            [M(1, 1, 0, 1, n), M(1, -1, 0, 1, n), M(1, 0, 1, 1, n), M(1, 0, -1, 1, n)]
        )
        for x in enumerate_sl2_bruteforce(n):
            expected = [mat_mul(x, g).entries() for g in gens]
            assert right_action(x.entries(), n) == expected
