"""The integer-mantissa mp layer against mpmath's mpf objects, bit for bit.

Every primitive of nullheat._highprec (dot, difference, quotient, square
root, triangular solve, Cholesky rows, LU) is compared with == to the same
operation on mpf at the same working precision, and the float outputs of
the two eigensolves with == to the mpf-object implementation kept in
mp_reference, which steps by triangular solves.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp

from nullheat import (NumericError, assemble_generator, build_basis, decompose,
                      project_kernel, restricted_mass_matrix, spectral_obs_constants)
from nullheat import _highprec as hp
from nullheat.bundled import bundled_kernels
import mp_reference as ref


def _exact(m, e):
    # an mpf holding m 2^e exactly, whatever the working precision
    return mp.make_mpf(libmp.from_man_exp(m, e))


def _prec(dps):
    with mp.workdps(dps):
        return mp.mp.prec


@st.composite
def _numbers(draw, prec, zeros=True):
    # zero, or at most prec bits at a magnitude 2^g; g straddles 0, prec and
    # 2 prec, so that sums of products both keep and drop terms
    if zeros and draw(st.integers(0, 7)) == 0:
        return _exact(0, 0)
    bits = draw(st.integers(1, prec))
    m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) * draw(st.sampled_from([1, -1]))
    g = draw(st.one_of(
        st.integers(-3 * prec, 3 * prec),
        st.sampled_from([0, 1, prec - 1, prec, prec + 1, 2 * prec - 1, 2 * prec,
                         2 * prec + 1, 2 * prec + 2])))
    return _exact(m, draw(st.sampled_from([1, -1])) * g - bits)


_DPS = st.integers(15, 1000)
# the example count comes from the profile: 100 by default, more under "ci"
_examples = settings(derandomize=True, deadline=None)


def _pairs(xs):
    return [hp._pair(x) for x in xs]


def _tri(rows):
    # rows of pairs as _solve_lower reads a lower-triangular matrix: each row
    # its off-diagonal entries as a _Vec and its diagonal pair
    return [(hp._Vec(row[:-1]), row[-1]) for row in rows]


def _cholesky(A, dps):
    # hp._cholesky on the mpf rows A, its factor's rows as mpf
    with mp.workdps(dps):
        L = hp._cholesky([_pairs(r) for r in A], mp.mp.prec)
    return [[hp._mpf(p) for p in row] for row in L]


class TestPrimitives:
    """dot, sub, div and sqrt on pairs equal mp.fdot, -, / and mp.sqrt."""

    @_examples
    @given(data=st.data(), dps=_DPS, n=st.integers(0, 8))
    def test_dot(self, data, dps, n):
        prec = _prec(dps)
        a = data.draw(st.lists(_numbers(prec), min_size=n, max_size=n))
        b = data.draw(st.lists(_numbers(prec), min_size=n, max_size=n))
        with mp.workdps(dps):
            want = hp._pair(mp.fdot(a, b))
            assert hp._dot(hp._Vec(_pairs(a)), hp._Vec(_pairs(b)), prec) == want
            # fdot(x, x) is fsum(x, absolute=True, squared=True): the norms' sums
            assert hp._pair(mp.fsum(a, absolute=True, squared=True)) == hp._dot(
                hp._Vec(_pairs(a)), hp._Vec(_pairs(a)), prec)

    @_examples
    @given(data=st.data(), dps=_DPS)
    def test_sub_div_sqrt(self, data, dps):
        prec = _prec(dps)
        x, y = data.draw(_numbers(prec)), data.draw(_numbers(prec))
        with mp.workdps(dps):
            assert hp._sub(hp._pair(x), hp._pair(y), prec) == hp._pair(x - y)
            assert hp._sqrt(hp._pair(abs(x)), prec) == hp._pair(mp.sqrt(abs(x)))
            assert hp._mul(hp._pair(x), hp._pair(y), prec) == hp._pair(x * y)
            assert hp._le(hp._pair(x), hp._pair(y)) == (x <= y)
            if y:
                assert hp._div(hp._pair(x), hp._pair(y), prec) == hp._pair(x / y)
            else:
                with pytest.raises(ZeroDivisionError):
                    hp._div(hp._pair(x), hp._pair(y), prec)

    @_examples
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_float_pair_is_the_mpf(self, x):
        assert hp._float_pair(x) == hp._pair(mp.mpf(x))

    @pytest.mark.parametrize("dps", [15, 50, 333])
    def test_tie_next_to_a_dropped_term(self, dps):
        # 1 + 2^-prec is a tie that rounds to even, 1; the exact sum with
        # 2^(-5 prec) rounds up, but mpf_sum drops that term, 4 prec bits
        # below its running sum, so the rounded dot is 1
        prec = _prec(dps)
        a = [_exact(1, 0), _exact(1, -prec), _exact(1, -5 * prec)]
        ones = [_exact(1, 0)] * 3
        with mp.workdps(dps):
            assert mp.fdot(a, ones) == 1
            assert hp._dot(hp._Vec(_pairs(a)), hp._Vec(_pairs(ones)), prec) == (1, 0)
            # the same dot in a triangular solve: x = (1, 1, 1, 0 - a . x)
            T = [[_exact(1, 0)], [_exact(0, 0), _exact(1, 0)],
                 [_exact(0, 0), _exact(0, 0), _exact(1, 0)], a + [_exact(1, 0)]]
            b = ones + [_exact(0, 0)]
            got = hp._solve_lower(_tri([_pairs(r) for r in T]), _pairs(b), prec)
            assert got.pairs == _pairs(ref.solve_lower(T, b))
            assert got.pairs[-1] == (-1, 0)


class TestFactors:
    """Triangular solves, Cholesky rows and LU equal the mpf-object code."""

    @_examples
    @given(data=st.data(), dps=_DPS, n=st.integers(1, 6))
    def test_solve_lower(self, data, dps, n):
        prec = _prec(dps)
        # diagonals include 1 and powers of two, which divide exactly
        diag = st.one_of(_numbers(prec, zeros=False),
                         st.integers(-3 * prec, 3 * prec).map(lambda k: _exact(1, k)))
        T = [data.draw(st.lists(_numbers(prec), min_size=i, max_size=i)) + [data.draw(diag)]
             for i in range(n)]
        b = data.draw(st.lists(_numbers(prec), min_size=n, max_size=n))
        with mp.workdps(dps):
            want = _pairs(ref.solve_lower(T, b))
            got = hp._solve_lower(_tri([_pairs(r) for r in T]), _pairs(b), prec)
        assert got.pairs == want

    @_examples
    @given(data=st.data(), dps=_DPS, n=st.integers(1, 6))
    def test_cholesky_rows(self, data, dps, n):
        prec = _prec(dps)
        # D (B B^T + c I) D: positive definite or nearly so, with the rows
        # scaled 2^k apart so that dots span more than 2 prec bits; or a
        # symmetric matrix that is not positive definite at all
        B = [data.draw(st.lists(_numbers(prec), min_size=n, max_size=n)) for _ in range(n)]
        shift = data.draw(_numbers(prec))
        scale = data.draw(st.lists(st.integers(-prec, prec), min_size=n, max_size=n))
        with mp.workdps(dps):
            if data.draw(st.booleans()):
                A = [[mp.ldexp(mp.fdot(B[i], B[j]) + (abs(shift) if i == j else 0),
                               scale[i] + scale[j]) for j in range(n)] for i in range(n)]
            else:
                A = [[B[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        assert _cholesky(A, dps) == ref.cholesky(A, dps)

    @_examples
    @given(data=st.data(), dps=_DPS, n=st.integers(1, 6))
    def test_lu(self, data, dps, n):
        prec = _prec(dps)
        A = [data.draw(st.lists(_numbers(prec), min_size=n, max_size=n)) for _ in range(n)]
        with mp.workdps(dps):
            try:
                L, Ut = ref.lu(A)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    hp._lu([_pairs(r) for r in A], prec)
                return
            got = hp._lu([_pairs(r) for r in A], prec)
        assert got == ([_pairs(r) for r in L], [_pairs(r) for r in Ut])


def _dec(domain, kernel, n):
    basis = build_basis(domain, n)
    return basis, decompose(assemble_generator(basis, project_kernel(kernel, basis)))


class TestAgainstMpfObjects:
    """Both eigensolves return what the mpf-object implementation returns."""

    @pytest.mark.parametrize("kernel", [k for _, k in bundled_kernels()],
                             ids=[name for name, _ in bundled_kernels()])
    def test_zeta(self, domain, kernel):
        for n in (6, 8, 12, 16, 19):
            basis, dec = _dec(domain, kernel, n)
            m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
            for t in (0.001, 0.01, 0.05):
                got = hp.generalized_min_eig_mp(dec.mus, dec.modes, m_omega, t)
                want = ref.generalized_min_eig(dec.mus, dec.modes, m_omega, t)
                assert got == want, (n, t)

    @pytest.mark.parametrize("omega", [(0.3, 0.8), (0.1, 0.6)])
    def test_packet_constants(self, domain, omega, monkeypatch):
        basis = build_basis(domain, 26)
        rs = [((n + 0.5) * np.pi) ** 2 for n in range(2, 25)]
        got = spectral_obs_constants(basis, omega, rs)
        calls = []

        def smallest(M, inverse=None, **kwargs):
            # the reference factors each block itself and solves on the factor
            calls.append(len(hp._rows(M)))
            return ref.smallest_eigenpair(M, **kwargs)

        monkeypatch.setattr(hp, "smallest_eigenpair_mp", smallest)
        want = spectral_obs_constants(basis, omega, rs)
        assert len(calls) >= 10
        for a, b in zip(got, want):
            assert (a.n_modes, a.c_min) == (b.n_modes, b.c_min)
            assert np.array_equal(a.witness, b.witness), a.n_modes

    def test_rayleigh_quotient(self, rng):
        c = rng.standard_normal(12)
        M = hp.mass_matrix_mp(12, 0.3, 0.8, 1.0)
        with mp.workdps(hp.DPS):
            x = [mp.mpf(float(v)) for v in c]
            want = mp.fdot(x, ref.matvec(ref.rows(M), x)) / mp.fdot(x, x)
        assert hp.rayleigh_quotient_mp(12, 0.3, 0.8, 1.0, c) == want

    def test_nonconvergence_message_names_dps(self):
        M = hp.mass_matrix_mp(8, 0.3, 0.8, 1.0)
        with pytest.raises(NumericError, match=r"no convergence in 2 steps at dps=50"):
            hp.smallest_eigenpair_mp(M, max_iter=2)
