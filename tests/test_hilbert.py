import numpy as np
import pytest
import scipy.sparse as sps
from numpy.testing import assert_allclose

from spinsys import (SpinSpace, down_spin_sector, embed_at, embed_local,
                     kron_chain, magnetization_sector, restrict, spin_matrices)
from spinsys.hilbert import (SectorBasis, SectorLeakError, SparseOperator, _embed,
                            momentum_blocks, total_sz_diagonal, translation_orbits)


def test_spin_half_matrices():
    s = spin_matrices(0.5)
    sx = np.array([[0, 0.5], [0.5, 0]])
    sz = np.array([[0.5, 0], [0, -0.5]])
    assert_allclose(np.asarray(s.s1), sx, atol=1e-15)
    assert_allclose(np.asarray(s.s3), sz, atol=1e-15)
    assert_allclose(np.asarray(s.plus), np.array([[0, 1], [0, 0]]), atol=1e-15)


@pytest.mark.parametrize("twice_s", [1, 2, 3, 4, 7])
def test_spin_algebra(twice_s):
    spin = twice_s / 2
    s = spin_matrices(spin)
    s1, s2, s3 = (np.asarray(m) for m in (s.s1, s.s2, s.s3))
    # [S1, S2] = i S3 and cyclic
    assert_allclose(s1 @ s2 - s2 @ s1, 1j * s3, atol=1e-12)
    assert_allclose(s2 @ s3 - s3 @ s2, 1j * s1, atol=1e-12)
    casimir = s1 @ s1 + s2 @ s2 + s3 @ s3
    assert_allclose(casimir, spin * (spin + 1) * np.eye(twice_s + 1), atol=1e-12)


def test_encode_decode_roundtrip():
    space = SpinSpace((2, 3, 2))
    for idx in range(space.total_dim):
        assert space.encode(space.decode(idx)) == idx
    # site 0 is the fastest digit
    assert space.encode((1, 0, 0)) == 1
    assert space.encode((0, 1, 0)) == 2


def test_total_sz_diagonal():
    space = SpinSpace((2, 2))
    d = total_sz_diagonal(space)
    # index 0 = both up
    assert d[0] == 1.0 and d[3] == -1.0
    assert sorted(d) == [-1.0, 0.0, 0.0, 1.0]


def test_magnetization_sector_dims():
    space = SpinSpace((2,) * 6)
    dims = {M: magnetization_sector(space, M).dim
            for M in space.magnetization_values()}
    from math import comb
    for k in range(7):
        assert dims[3 - k] == comb(6, k)
    assert sum(dims.values()) == 64


def test_sector_scan_matches_recursion():
    # oracle: scan of the full-space total-S^3 diagonal, on a mixed-radix
    # space and on one above 2^22 states
    for dims in [(2, 3, 2, 3), (2,) * 23]:
        space = SpinSpace(dims)
        tm = np.rint(2 * total_sz_diagonal(space)).astype(np.int64)
        for M in space.magnetization_values():
            scan = np.nonzero(tm == int(round(2 * M)))[0]
            assert np.array_equal(magnetization_sector(space, M).states, scan), (dims, M)


def test_down_spin_sector():
    space = SpinSpace((2,) * 4)
    sec = down_spin_sector(space, 1)
    assert sec.dim == 4
    d = total_sz_diagonal(space)
    assert all(d[i] == 1.0 for i in sec.states)
    with pytest.raises(ValueError):
        down_spin_sector(SpinSpace((3, 3)), 1)


def test_space_past_64_bit_indices_is_refused():
    assert SpinSpace((2,) * 63).strides[-1] == 2 ** 62
    with pytest.raises(ValueError, match="64-site space has 18446744073709551616 states, "
                                         "above 2\\^63"):
        magnetization_sector(SpinSpace((2,) * 64), 31)


def test_kron_chain_little_endian():
    space = SpinSpace((2, 2))
    s = spin_matrices(0.5)
    op = kron_chain(space, {0: np.asarray(s.s3)})
    d = op.toarray().diagonal().real
    # site-0 operator acts on the fastest index
    assert_allclose(d, [0.5, -0.5, 0.5, -0.5], atol=1e-15)


def _per_site_kron_chain(space, site_ops):
    out = sps.identity(1, dtype=complex, format="csr")
    for x, d in enumerate(space.site_dims):
        local = site_ops.get(x)
        local = (sps.identity(d, dtype=complex, format="csr") if local is None
                 else sps.csr_matrix(np.asarray(local, dtype=complex)))
        out = sps.kron(local, out, format="csr")
    return SparseOperator(out).matrix


@pytest.mark.parametrize("sites", [(), (0,), (2,), (3,), (1, 3), (0, 2), (0, 3),
                                   (0, 1, 2, 3)])
def test_kron_chain_matches_per_site_chain(sites):
    space = SpinSpace((2, 3, 2, 4))
    rng = np.random.default_rng(7)
    site_ops = {}
    for x in sites:
        d = space.site_dims[x]
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m[rng.random((d, d)) < 0.3] = 0.0
        site_ops[x] = m
    got = kron_chain(space, site_ops).matrix
    ref = _per_site_kron_chain(space, site_ops)
    assert got.shape == ref.shape == (48, 48)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


@pytest.mark.parametrize("site", [-1, 4])
def test_kron_chain_rejects_site_outside_space(site):
    with pytest.raises(ValueError, match="not a site"):
        kron_chain(SpinSpace((2, 3, 2, 4)), {site: np.eye(2)})


def test_embed_local_matches_kron_product():
    space = SpinSpace((2, 2, 2))
    s = spin_matrices(0.5)
    sz = np.asarray(s.s3)
    two_site = np.kron(sz, sz)      # site order (x, y) with y slower
    emb = embed_local(space, [((0, 2), two_site)]).toarray()
    ref = (kron_chain(space, {0: sz}).matrix @ kron_chain(space, {2: sz}).matrix).toarray()
    assert_allclose(emb, ref, atol=1e-14)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_local_matrix_raises(value):
    # a NaN element fails ``>= PRUNE_TOL`` and was pruned to zero
    space = SpinSpace((2, 2))
    for embed in (lambda m: embed_local(space, [((0,), m)]),
                  lambda m: embed_at(space, [(1, m)])):
        with pytest.raises(ValueError, match="not finite"):
            embed(np.array([[0.0, value], [value, 1.0]]))


def test_embed_local_nonadjacent_noncommuting():
    space = SpinSpace((2, 2, 2))
    s = spin_matrices(0.5)
    sp, sm = np.asarray(s.plus), np.asarray(s.minus)
    # little-endian within the support: first support site is the fast index
    emb = embed_local(space, [((0, 2), np.kron(sm, sp))]).toarray()
    ref = (kron_chain(space, {0: sp}).matrix @ kron_chain(space, {2: sm}).matrix).toarray()
    assert_allclose(emb, ref, atol=1e-14)


def test_embed_local_sums_its_terms():
    # overlapping supports, a repeated one and a single site: one conversion
    # adds the elements that land on the same position
    space = SpinSpace((2, 3, 2, 2))
    rng = np.random.default_rng(5)
    terms = []
    for support in [(0, 1), (1, 2), (0, 1), (3,), (0, 2, 3)]:
        d = int(np.prod([space.site_dims[x] for x in support]))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        terms.append((support, m + m.conj().T))
    got = embed_local(space, terms).toarray()
    want = sum(embed_local(space, [t]).toarray() for t in terms)
    assert_allclose(got, want, rtol=0, atol=1e-12)
    assert embed_local(space, []).matrix.nnz == 0


def _per_element_embed_local(space, support, matrix):
    """Each nonzero of the local matrix, placed at the offsets of every
    configuration of the sites outside the support."""
    support = tuple(sorted(support))
    sub = SpinSpace(tuple(space.site_dims[x] for x in support))
    rest_offsets = np.zeros(1, dtype=np.int64)
    for x in range(space.n_sites):
        if x not in support:
            step = np.arange(space.site_dims[x], dtype=np.int64) * space.strides[x]
            rest_offsets = (rest_offsets[None, :] + step[:, None]).ravel(order="F")
    coo = sps.coo_matrix(np.asarray(matrix, dtype=complex))
    rows, cols, data = [], [], []
    for a, b, v in zip(coo.row, coo.col, coo.data):
        off_a = sum(d * space.strides[x] for d, x in zip(sub.decode(int(a)), support))
        off_b = sum(d * space.strides[x] for d, x in zip(sub.decode(int(b)), support))
        rows.append(off_a + rest_offsets)
        cols.append(off_b + rest_offsets)
        data.append(np.full(rest_offsets.size, v, dtype=complex))
    n = space.total_dim
    mat = sps.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))
    return SparseOperator(mat).matrix


@pytest.mark.parametrize("dims,support", [
    ((2,) * 6, (2, 3)), ((2,) * 6, (5, 0)), ((2, 3, 2, 4, 2), (1, 3)),
    ((2, 3, 2, 4, 2), (0, 2, 4)), ((3,) * 5, (4, 0)), ((2, 3), (0, 1))])
def test_embed_local_matches_per_element_embedding(dims, support):
    space = SpinSpace(dims)
    rng = np.random.default_rng(11)
    d = int(np.prod([dims[x] for x in support]))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m[rng.random((d, d)) < 0.4] = 0.0
    got = embed_local(space, [(support, m)]).matrix
    ref = _per_element_embed_local(space, support, m)
    assert got.shape == ref.shape == (space.total_dim,) * 2
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def _assert_same_csr(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def test_shared_matrices_on_mixed_dims_match_per_element_embedding():
    # one- two- and three-site matrices, each on several supports, in an
    # order that interleaves the groups; the 6 x 6 one on sites of dims (2, 3)
    # and (3, 2) forms two groups.  Entries are multiples of 1/4, so every
    # order of summation gives the same bits
    space = SpinSpace((2, 3, 2, 3, 2))
    rng = np.random.default_rng(17)

    def quarters(d):
        m = (rng.integers(-4, 5, (d, d)) + 1j * rng.integers(-4, 5, (d, d))) / 4
        m[rng.random((d, d)) < 0.3] = 0.0
        return m + m.conj().T

    a2, a3, b, c = quarters(2), quarters(3), quarters(6), quarters(12)
    terms = [((0,), a2), ((0, 1), b), ((1,), a3), ((2, 3), b), ((0, 1, 2), c), ((2,), a2),
             ((1, 2), b), ((3,), a3), ((2, 3, 4), c), ((4,), a2), ((3, 4), b)]
    got = embed_local(space, terms).matrix
    per_element = SparseOperator(sum(_per_element_embed_local(space, s, m) for s, m in terms))
    one_by_one = SparseOperator(sum(_embed(space, [[(s, m)]]).matrix for s, m in terms))
    _assert_same_csr(got, per_element.matrix)
    _assert_same_csr(got, one_by_one.matrix)


def test_one_factor_diagonals_add_up_in_product_order():
    # the diagonal is the sum of the one-factor terms in their order, as a
    # loop adds it.  1e16 + 1 rounds to 1e16, so adding them in another order,
    # or reading a term at another term's site, gives other bits; ``one``
    # forms a group of the products 1 and 3, split by the others
    space = SpinSpace((2,) * 4)
    big, one = np.diag([1e16, 0.0]), np.diag([1.0, 0.0])
    terms = [((0,), big), ((1,), one), ((3,), -big), ((2,), one)]
    want = np.zeros(space.total_dim)
    for (x,), m in terms:
        want += np.diagonal(m)[np.arange(space.total_dim) >> x & 1]
    assert want[0] == 1.0 and want[4] == 0.0
    assert np.array_equal(embed_local(space, terms).toarray().diagonal(), want)


def test_shared_matrix_elements_add_up_in_product_order():
    # each term raises site 0, weighted by the digit of site 1, 2 or 3; the
    # first and the last share b1, a group split by b2.  From the state with
    # digits (1, 0, 0, 1) the three add up to (1e16 - 1e16) + 1 = 1 in
    # product order, and to other bits in the order (3, 2, 1)
    space = SpinSpace((2, 3, 3, 3))
    plus = spin_matrices(0.5).plus.real
    b1, b2 = (np.kron(np.diag(w), plus) for w in ([1e16, 1.0, 0.5], [-1e16, 2.0, 0.5]))
    terms = [((0, 1), b1), ((0, 2), b2), ((0, 3), b1)]
    got = embed_local(space, terms).matrix
    col, row = space.encode((1, 0, 0, 1)), space.encode((0, 0, 0, 1))
    assert got[row, col] == 1.0 != (1.0 - 1e16) + 1e16
    one_by_one = SparseOperator(sum(_embed(space, [[t]]).matrix for t in terms))
    _assert_same_csr(got, one_by_one.matrix)


@pytest.mark.parametrize("case", ["tail", "complex", "s3_zero"])
def test_diagonal_factors_match_per_site_chain(case):
    # diagonal one-site factors scale the values in place, except a diagonal
    # with a zero (spin-1 S3), whose zero must drop the states it maps to 0
    space = SpinSpace((2, 3, 2, 2, 3))
    t = np.diag([1 / 0.3, 0.3])
    half, one = spin_matrices(0.5), spin_matrices(1)
    site_ops = {"tail": {0: half.plus, 2: t, 3: t},
                "complex": {1: np.diag([1 + 2j, 0.5, -1j]), 0: half.minus,
                            3: np.diag([0.25 - 1j, 3.0])},
                "s3_zero": {1: one.s3, 2: t, 4: one.plus, 0: np.diag([2.0, -0.5])}}[case]
    _assert_same_csr(kron_chain(space, site_ops).matrix, _per_site_kron_chain(space, site_ops))
    if case == "tail":          # raises M by one, as the SU_q(2) ladder's terms
        lo, up = magnetization_sector(space, 0.5), magnetization_sector(space, 1.5)
        block = kron_chain(lo, site_ops, target=up).toarray()
        assert block.dtype == np.float64
        assert np.array_equal(block, restrict(kron_chain(space, site_ops), lo, target=up))


def test_reused_matrix_is_checked_against_each_support():
    # the matrix is checked once per site dimensions, every site every time
    space = SpinSpace((2, 3, 2))
    s3 = spin_matrices(0.5).s3
    with pytest.raises(ValueError, match="local matrix has shape"):
        embed_local(space, [((0,), s3), ((2,), s3), ((1,), s3)])
    with pytest.raises(ValueError, match="not a site"):
        embed_local(space, [((0,), s3), ((3,), s3)])
    with pytest.raises(ValueError, match="not a site"):
        embed_at(space, [(0, s3), (2, s3), (3, s3)])


def test_leak_inside_a_group_names_the_first_leaking_product():
    # both matrices are shared by two supports; the tiny leaks of the first
    # are dropped, and the first product of the second, on sites (1, 2),
    # raises the down-down state 6 (sector column 2) to 0, where the one on
    # (0, 3) would raise state 9 (column 3)
    space = SpinSpace((2,) * 4)
    sector = magnetization_sector(space, 0.0)
    half = spin_matrices(0.5)
    big = 0.5 * np.kron(half.plus, half.plus)
    tiny = 2e-12 * big + np.kron(half.plus, half.minus) + np.kron(half.minus, half.plus)
    terms = [((0, 1), tiny), ((1, 2), big), ((2, 3), tiny), ((0, 3), big)]
    for products in (terms, terms[1:2]):
        with pytest.raises(SectorLeakError,
                           match=r"\|element\| = 5\.000e-01 at state 0, sector-col 2$"):
            embed_local(sector, products)
    assert embed_local(sector, terms[::2]).matrix.nnz == 4 + 2 * 2


def test_restrict_leak_detection():
    space = SpinSpace((2, 2))
    s = spin_matrices(0.5)
    sector = magnetization_sector(space, 0.0)
    sz = kron_chain(space, {0: np.asarray(s.s3)})
    block = restrict(sz, sector)
    assert block.shape == (2, 2)
    # a single raising operator leaves the sector
    sp = kron_chain(space, {0: np.asarray(s.plus)})
    with pytest.raises(ValueError, match="leak"):
        restrict(sp, sector)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
def test_restrict_to_target_sector(dims):
    space = SpinSpace(dims)
    plus = sum(kron_chain(space, {x: spin_matrices((d - 1) / 2).plus}).matrix
               for x, d in enumerate(dims))
    plus = SparseOperator(plus)
    values = space.magnetization_values()
    for upper, lower in zip(values, values[1:]):
        sector, below = (magnetization_sector(space, M) for M in (upper, lower))
        block = restrict(plus, below, target=sector)
        ref = plus.toarray()[np.ix_(sector.states, below.states)]
        assert block.shape == (sector.dim, below.dim)
        assert_allclose(block, ref, rtol=0, atol=0)
        # S+ raises M, so its image leaves a target of the wrong magnetization
        with pytest.raises(ValueError, match="leak"):
            restrict(plus, below, target=below)


def test_sparse_operator_validation():
    # the second is symmetric but not Hermitian: the check conjugates
    for mat in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 1j], [1j, 0.0]])):
        with pytest.raises(ValueError, match="hermitian flag asserted"):
            SparseOperator(mat, hermitian=True)
    op = SparseOperator(np.array([[2.0, 0.0], [0.0, -1.0]]), hermitian=True)
    assert np.linalg.norm(op.toarray(), 2) == pytest.approx(2.0)


def test_sparse_operator_leaves_its_input_alone():
    # pruning, dropping zeros and sorting act on a copy of a caller's CSR,
    # with or without a dtype conversion (complex on the full space)
    sector = magnetization_sector(SpinSpace((2, 2)), 0.0)
    for basis in (None, sector):
        mat = sps.csr_matrix((np.array([1e-20, 1.0, 2.0, 1e-20]), np.array([1, 0, 1, 0]),
                              np.array([0, 2, 4])), shape=(2, 2))
        before = [a.copy() for a in (mat.data, mat.indices, mat.indptr)]
        op = SparseOperator(mat, basis=basis)
        assert op.matrix.nnz == 2 and op.matrix.has_sorted_indices
        for a, b in zip((mat.data, mat.indices, mat.indptr), before):
            assert np.array_equal(a, b)


def shift_cycles(sector):
    """The orbits of the one-site shift the direct way: each state's digits
    moved one site on (site x to x + 1 mod L) until the state comes back."""
    space = sector.parent
    L = space.n_sites
    index = {s: i for i, s in enumerate(sector.states.tolist())}

    def shift(s):
        digits = space.decode(s)
        return space.encode([digits[(x - 1) % L] for x in range(L)])

    cycles = {}
    for s in sector.states.tolist():
        cycle = [s]
        while shift(cycle[-1]) != s:
            cycle.append(shift(cycle[-1]))
        rep = min(cycle)
        cycles[s] = (cycle[cycle.index(rep):] + cycle[:cycle.index(rep)], index[shift(s)])
    return cycles


@pytest.mark.parametrize("dims, M", [((3,) * 6, 0), ((3,) * 6, 1), ((3,) * 6, 6),
                                     ((2,) * 8, 1), ((2,) * 8, 0), ((2,) * 9, 0.5)])
def test_translation_orbits_match_shift_cycles(dims, M):
    # spin 1 at L = 6, M = 0 holds orbits of periods 1, 2, 3 and 6
    sector = magnetization_sector(SpinSpace(dims), M)
    orbits = translation_orbits(sector)
    cycles = shift_cycles(sector)
    periods = set()
    for i, s in enumerate(sector.states.tolist()):
        cycle, shifted = cycles[s]
        a = orbits.orbit[i]
        assert sector.states[orbits.reps[a]] == cycle[0]
        assert orbits.period[a] == len(cycle)
        assert cycle[orbits.pos[i]] == s                 # s = T^pos r
        assert orbits.shift[i] == shifted
        periods.add(len(cycle))
    # orbits are numbered by ascending representative
    assert np.all(np.diff(sector.states[orbits.reps]) > 0)
    assert sum(sum(sizes) for *_, sizes in orbits.slots(range(len(dims)))) == sector.dim
    if dims == (3,) * 6 and M == 0:
        assert periods == {1, 2, 3, 6}


def test_translation_orbits_refuse_unequal_sites_and_open_sectors():
    with pytest.raises(ValueError, match="one local dimension"):
        translation_orbits(magnetization_sector(SpinSpace((2, 3, 2)), 0))
    space = SpinSpace((2,) * 4)
    with pytest.raises(ValueError, match="shift leaves sector"):
        translation_orbits(SectorBasis(space, ("custom", 0), np.array([1, 3])))


def test_momentum_blocks_match_dense_cycle_basis_on_spin_one():
    # the AKLT + S3 S3 ring: the blocks of every k, k > L/2 too, against the
    # spectrum of basis^H h basis over the m^(-1/2) e^(-2 pi i k j / L) cycle
    # vectors; with a chiral term h is complex, and raises
    from spinsys import aklt, assemble, custom
    L = 6
    s = spin_matrices(1.0)
    s1, s2, s3 = (np.asarray(m) for m in (s.s1, s.s2, s.s3))
    chiral = np.kron(s2, s1) - np.kron(s1, s2)         # S1_x S2_x+1 - S2_x S1_x+1
    swap = np.eye(9)[[3 * (i % 3) + i // 3 for i in range(9)]]
    ring = aklt(L, periodic=True) + custom([((x, (x + 1) % L), 0.05 * np.kron(s3, s3))
                                            for x in range(L)])
    twisted = ring + custom([((x, x + 1), 0.3 * chiral) for x in range(L - 1)]
                            + [((0, L - 1), 0.3 * swap @ chiral @ swap)])
    sector = magnetization_sector(SpinSpace((3,) * L), 0)
    orbits = translation_orbits(sector)
    h = assemble(ring, sector).matrix
    for k, halves in enumerate(momentum_blocks(h, orbits, orbits.slots(range(L)))):
        basis = cycle_vectors(sector, k)
        want = np.linalg.eigvalsh(basis.conj().T @ (h @ basis))
        assert all(np.isrealobj(block) for block in halves)
        got = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in halves]))
        assert got.shape == want.shape and np.abs(got - want).max() < 1e-12
    with pytest.raises(ValueError, match="real h"):
        next(momentum_blocks(assemble(twisted, sector).matrix, orbits, orbits.slots([0])))


def cycle_vectors(sector, k):
    """The m^(-1/2) e^(-2 pi i k j / L) cycle vectors of block k, as columns
    in ascending representative, from ``shift_cycles``."""
    L = sector.n_sites
    cycles = shift_cycles(sector)
    index = {st: i for i, st in enumerate(sector.states.tolist())}
    basis = []
    for r in sorted({cycle[0] for cycle, _ in cycles.values()}):
        cycle = cycles[r][0]
        if k * len(cycle) % L == 0:
            v = np.zeros(sector.dim, dtype=complex)
            v[[index[t] for t in cycle]] = (np.exp(-2j * np.pi * k * np.arange(len(cycle)) / L)
                                            / np.sqrt(len(cycle)))
            basis.append(v)
    return np.array(basis).T


def reflection_matrix(sector):
    """The reflection x -> L - 1 - x on the sector, digit by digit."""
    space = sector.parent
    index = {st: i for i, st in enumerate(sector.states.tolist())}
    P = np.zeros((sector.dim, sector.dim))
    for i, s in enumerate(sector.states.tolist()):
        P[index[space.encode(space.decode(s)[::-1])], i] = 1.0
    return P


def parity_cases():
    from spinsys import XxzParams, aklt, custom, xxz
    s3 = np.asarray(spin_matrices(1.0).s3)
    for L, M in ((6, 0), (6, 1), (7, 1)):
        ring = aklt(L, periodic=True) + custom([((x, (x + 1) % L), 0.05 * np.kron(s3, s3))
                                                for x in range(L)])
        yield ring, magnetization_sector(SpinSpace((3,) * L), M)
    for L, n in ((8, 3), (8, 4), (9, 3)):
        p = XxzParams.from_delta(L, 1.5, boundary="periodic")
        yield xxz(p), down_spin_sector(SpinSpace((2,) * L), n)


@pytest.mark.parametrize("case", range(6))
def test_parity_blocks_are_the_j_real_cycle_basis(case):
    # the columns of ``slots`` over the cycle vectors are orthonormal and
    # fixed by J = P K; the block is U^H h U in them, real; at k = 0 and L/2
    # the two halves are the columns P fixes and the ones P negates, and h
    # has no entry between them
    from spinsys import assemble
    phi, sector = list(parity_cases())[case]
    L = sector.n_sites
    orbits = translation_orbits(sector)
    h = assemble(phi, sector).matrix
    P = reflection_matrix(sector)
    assert np.array_equal(P[orbits.reflect, np.arange(sector.dim)], np.ones(sector.dim))
    amps = orbits.slot_amps()
    slots = orbits.slots(range(L // 2 + 1))
    for (k, table, dims), halves in zip(slots, momentum_blocks(h, orbits, slots)):
        columns, turns = table[:2], table[2:]
        n = sum(dims)
        kept = np.flatnonzero(k * orbits.period % L == 0)
        C = np.zeros((kept.size, n), dtype=complex)
        for row, a in enumerate(kept):
            for c, turn in zip(columns[:, a], turns[:, a]):
                if c < n:
                    C[row, c] += amps[a] * np.exp(2j * np.pi * turn / (4 * L))
        U = cycle_vectors(sector, k) @ C
        assert np.abs(U.conj().T @ U - np.eye(n)).max() < 1e-12
        assert np.abs(P @ U.conj() - U).max() < 1e-12
        want = U.conj().T @ (h @ U)
        assert np.abs(want.imag).max() < 1e-12
        assert len(halves) == len(dims) == (2 if 2 * k % L == 0 else 1)
        at = 0
        for block, d in zip(halves, dims):
            assert np.isrealobj(block) and block.shape == (d, d)
            assert np.abs(block - want[at:at + d, at:at + d].real).max() < 1e-12
            at += d
        if len(dims) == 2:
            even = dims[0]
            assert np.abs(P @ U[:, :even] - U[:, :even]).max() < 1e-12
            assert np.abs(P @ U[:, even:] + U[:, even:]).max() < 1e-12
            assert np.abs(want[:even, even:]).max() < 1e-12
