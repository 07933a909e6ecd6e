import numpy as np
import pytest
from test_pins import SPECTRUM_MATRICES

from dmsgd.harness import load_edge_list
from dmsgd.topology import (
    JacobiConvergenceError,
    MixingMatrix,
    Topology,
    build_topology,
    effective_matrix,
    jacobi_eigenvalues,
    lambda_cap,
    metropolis_mixing,
    spectrum,
)
from dmsgd.verify import reference_jacobi_eigenvalues


def random_mixing(rng, n, extra_edges=0, laziness=None):
    # ring plus a few chords keeps the graph connected and irregular
    pairs = [(j, (j + 1) % n) for j in range(n)] if n > 2 else [(0, 1)]
    for _ in range(extra_edges):
        j, l = sorted(rng.choice(n, size=2, replace=False))
        pairs.append((int(j), int(l)))
    t = build_topology("custom", n, edges=pairs)
    ell = float(rng.uniform(0, 0.9)) if laziness is None else laziness
    return metropolis_mixing(t, laziness=ell)


def test_full_topology_is_complete_graph():
    t = build_topology("full", 3)
    assert t.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_ring_topology_is_cycle():
    t = build_topology("ring", 4)
    assert t.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_bipartite_topology_k22():
    t = build_topology("bipartite", 4, parts=(2, 2))
    assert t.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})


def test_bipartite_default_split():
    assert build_topology("bipartite", 5).edges == build_topology("bipartite", 5, parts=(2, 3)).edges


def test_ring_small_n():
    assert build_topology("ring", 2).edges == frozenset({(0, 1)})
    assert build_topology("ring", 1).edges == frozenset()
    assert build_topology("full", 1).edges == frozenset()


def test_invalid_bipartite_split_rejected():
    with pytest.raises(ValueError):
        build_topology("bipartite", 4, parts=(4, 1))
    with pytest.raises(ValueError):
        build_topology("bipartite", 4, parts=(0, 4))


def test_disconnected_custom_rejected():
    with pytest.raises(ValueError, match="connected"):
        build_topology("custom", 4, edges=[(0, 1), (2, 3)])


def test_self_loop_and_range_rejected():
    with pytest.raises(ValueError):
        Topology(n=3, edges=frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Topology(n=3, edges=frozenset({(0, 3)}))


def test_edge_list_roundtrip(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("4\n0 1\n1 2\n2 3\n0 3\n", encoding="utf-8")
    t = load_edge_list(path)
    assert t.n == 4
    assert t.edges == build_topology("ring", 4).edges


def test_metropolis_full3_is_uniform():
    m = metropolis_mixing(build_topology("full", 3))
    assert np.allclose(m.entries, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_metropolis_ring4_rows():
    m = metropolis_mixing(build_topology("ring", 4))
    expected = np.array(
        [
            [1 / 3, 1 / 3, 0.0, 1 / 3],
            [1 / 3, 1 / 3, 1 / 3, 0.0],
            [0.0, 1 / 3, 1 / 3, 1 / 3],
            [1 / 3, 0.0, 1 / 3, 1 / 3],
        ]
    )
    assert np.allclose(m.entries, expected, atol=1e-15)


def test_laziness_blend_limits():
    t = build_topology("ring", 4)
    m = metropolis_mixing(t, laziness=1.0 - 1e-9)
    assert np.abs(m.entries - np.eye(4)).max() < 1e-8
    with pytest.raises(ValueError):
        metropolis_mixing(t, laziness=1.0)


def test_mixing_invariants_random():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8, 12):
        m = random_mixing(rng, n, extra_edges=2)
        assert m.entries.min() >= 0.0
        assert np.abs(m.entries.sum(axis=0) - 1).max() <= 1e-12
        assert np.abs(m.entries.sum(axis=1) - 1).max() <= 1e-12
        assert np.abs(m.entries - m.entries.T).max() <= 1e-12


def test_sparsity_pattern_enforced():
    bad = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="sparsity"):
        MixingMatrix(n=3, entries=bad, edges=frozenset({(0, 1), (1, 2)}))


def test_spectrum_uniform_rank_one():
    m = metropolis_mixing(build_topology("full", 3))
    s = spectrum(m)
    assert np.allclose(s.eigenvalues, [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(s.lambda2) <= 1e-12
    assert abs(s.lambda_n) <= 1e-12


def test_spectrum_ring4_golden():
    s = spectrum(metropolis_mixing(build_topology("ring", 4)))
    assert np.allclose(s.eigenvalues, [1.0, 1 / 3, 1 / 3, -1 / 3], atol=1e-10)
    assert abs(s.lambda2 - 1 / 3) <= 1e-10
    assert abs(s.lambda_n + 1 / 3) <= 1e-10


def test_spectrum_identity_all_ones():
    m = MixingMatrix(n=5, entries=np.eye(5), laziness=0.0)
    assert np.allclose(spectrum(m).eigenvalues, np.ones(5), atol=1e-14)


def test_jacobi_matches_numpy_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 4, 7, 11):
        m = random_mixing(rng, n, extra_edges=3)
        ours = np.sort(jacobi_eigenvalues(m.entries))
        ref = np.sort(np.linalg.eigvalsh(m.entries))
        assert np.abs(ours - ref).max() < 1e-10


def test_jacobi_nonconvergence_raises():
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(JacobiConvergenceError):
        jacobi_eigenvalues(a, max_sweeps=0)


def _jacobi_zoo():
    zoo = {name: make().entries for name, make in SPECTRUM_MATRICES.items()}
    rng = np.random.default_rng(5)
    for n in (2, 5, 9, 17, 33):
        zoo[f"random_mixing{n}"] = random_mixing(rng, n, extra_edges=n // 2).entries
    sym = rng.normal(size=(6, 6))
    zoo["random_symmetric6"] = sym + sym.T
    zoo["single_agent"] = np.array([[0.7]])
    zoo["identity5"] = np.eye(5)  # every pivot is exactly zero
    zoo["uniform_rank_one4"] = np.full((4, 4), 0.25)
    zoo["tiny_pivot"] = np.array([[1.0, 1e-300], [1e-300, 0.0]])  # first-order tangent
    zoo["negative_theta"] = np.array([[2.0, 0.5], [0.5, 1.0]])  # a[q,q] < a[p,p]
    return zoo


JACOBI_ZOO = _jacobi_zoo()


@pytest.mark.parametrize("name", sorted(JACOBI_ZOO))
def test_jacobi_bit_identical_to_reference(name):
    ours = jacobi_eigenvalues(JACOBI_ZOO[name])
    ref = reference_jacobi_eigenvalues(JACOBI_ZOO[name])
    assert np.array_equal(ours, ref)
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("max_sweeps", [0, 1])
def test_jacobi_nonconvergence_message_matches_reference(max_sweeps):
    m = SPECTRUM_MATRICES["ring16_lazy0.3"]().entries
    with pytest.raises(JacobiConvergenceError) as ours:
        jacobi_eigenvalues(m, max_sweeps=max_sweeps)
    with pytest.raises(JacobiConvergenceError) as ref:
        reference_jacobi_eigenvalues(m, max_sweeps=max_sweeps)
    assert str(ours.value) == str(ref.value)
    assert f"after {max_sweeps} sweeps" in str(ours.value)


def test_largest_eigenvalue_is_one():
    rng = np.random.default_rng(2)
    for _ in range(5):
        s = spectrum(random_mixing(rng, 6, extra_edges=2))
        assert abs(s.eigenvalues[0] - 1.0) <= 1e-10


def test_effective_matrix_limits():
    m = metropolis_mixing(build_topology("ring", 4))
    assert np.allclose(effective_matrix(m, 0.0).entries, m.entries, atol=1e-15)
    assert np.allclose(effective_matrix(m, 1.0).entries, np.eye(4), atol=1e-15)
    with pytest.raises(ValueError):
        effective_matrix(m, 1.5)


def test_effective_matrix_uniform_half():
    m = metropolis_mixing(build_topology("full", 3))
    e = effective_matrix(m, 0.5).entries
    assert np.allclose(np.diag(e), 2.0 / 3.0, atol=1e-15)
    off = e[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 1.0 / 6.0, atol=1e-15)


def test_affine_spectral_map():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_mixing(rng, 6, extra_edges=2)
        w = float(rng.uniform(0, 1))
        base = spectrum(m).eigenvalues
        eff = spectrum(effective_matrix(m, w)).eigenvalues
        assert np.abs(eff - (w + (1 - w) * base)).max() <= 1e-10


def test_lambda_min_effective_matches_spectrum():
    m = metropolis_mixing(build_topology("ring", 4))
    s = spectrum(m)
    for w in (0.0, 0.3, 0.5, 1.0):
        direct = spectrum(effective_matrix(m, w)).eigenvalues[-1]
        assert abs(s.lambda_min_effective(w) - direct) <= 1e-10


def test_lambda_cap_values():
    assert lambda_cap(0.0, 0.3) == pytest.approx(0.3)
    assert lambda_cap(1.0, -0.7) == pytest.approx(1.0)
    assert lambda_cap(0.5, 1 / 3) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        lambda_cap(-0.1, 0.0)
    with pytest.raises(ValueError):
        lambda_cap(0.5, 1.2)


def test_projection_commutes_with_effective_matrix():
    rng = np.random.default_rng(4)
    for _ in range(5):
        m = random_mixing(rng, 5, extra_edges=2)
        eff = effective_matrix(m, float(rng.uniform(0, 1))).entries
        n = m.n
        proj = np.eye(n) - np.ones((n, n)) / n
        comm = proj @ eff - eff @ proj
        assert np.linalg.norm(comm, "fro") <= 1e-12


def test_lambda2_monotonicity():
    full = spectrum(metropolis_mixing(build_topology("full", 8)))
    ring = spectrum(metropolis_mixing(build_topology("ring", 8)))
    assert full.lambda2 <= 1e-12 <= ring.lambda2
    t = build_topology("ring", 6)
    lam = [spectrum(metropolis_mixing(t, laziness=ell)).lambda2 for ell in (0.0, 0.2, 0.5, 0.8)]
    assert all(a <= b + 1e-12 for a, b in zip(lam, lam[1:]))


def test_single_agent_convention():
    m = metropolis_mixing(build_topology("full", 1))
    s = spectrum(m)
    assert s.lambda2 == pytest.approx(1.0)
    assert s.lambda_n == pytest.approx(1.0)
    assert s.lambda_min_effective(0.3) == pytest.approx(1.0)
