"""Tests for the multiplication-chain planner, AMG setup, and kron."""

import numpy as np
import pytest

from repro import CSR, ConfigError, ShapeError, csr_from_dense, identity, random_csr
from repro.apps.amg import amg_setup, two_level_solve
from repro.core.chain import multiply_chain, plan_chain
from repro.datasets import mesh2d
from repro.matrix.construct import diagonal
from repro.matrix.ops import add, kron, spmv, transpose


class TestKron:
    def test_matches_numpy(self, rng):
        a = random_csr(4, 5, 0.4, seed=1)
        b = random_csr(3, 2, 0.5, seed=2)
        np.testing.assert_allclose(
            kron(a, b).to_dense(), np.kron(a.to_dense(), b.to_dense())
        )

    def test_identity_identity(self):
        out = kron(identity(3), identity(4))
        np.testing.assert_allclose(out.to_dense(), np.eye(12))

    def test_kron_of_empty(self):
        z = csr_from_dense(np.zeros((2, 2)))
        a = random_csr(3, 3, 0.5, seed=3)
        assert kron(z, a).nnz == 0
        assert kron(z, a).shape == (6, 6)

    def test_mixed_product_property(self):
        """(A kron B)(C kron D) == (AC) kron (BD)."""
        from repro import spgemm

        a = random_csr(3, 3, 0.5, seed=4)
        b = random_csr(2, 2, 0.7, seed=5)
        c = random_csr(3, 3, 0.5, seed=6)
        d = random_csr(2, 2, 0.7, seed=7)
        lhs = spgemm(kron(a, b), kron(c, d), algorithm="esc")
        rhs = kron(spgemm(a, c, algorithm="esc"), spgemm(b, d, algorithm="esc"))
        assert lhs.allclose(rhs)


class TestChainPlanner:
    def test_order_matters_tall_thin_fat(self):
        """(A B) C vs A (B C): with a thin middle the planner must pick the
        association that goes through the small intermediate."""
        rng = np.random.default_rng(0)
        tall = csr_from_dense((rng.random((60, 3)) < 0.8) * 1.0)  # 60x3
        thin = csr_from_dense((rng.random((3, 60)) < 0.8) * 1.0)  # 3x60
        fat = random_csr(60, 60, 0.2, seed=1)  # 60x60
        # tall @ thin is a dense 60x60; (thin @ fat) is tiny 3x60
        plan = plan_chain([tall, thin, fat])
        assert plan.order == (0, (1, 2))
        assert plan.saving > 2.0

    def test_galerkin_tie_prefers_left_deep(self):
        """R A Rᵀ with symmetric A: both orders cost the same flops, and the
        planner keeps the left-deep order the streamed sandwich runs."""
        a = mesh2d(12, 12)
        n = a.nrows
        agg = (np.arange(12)[:, None] // 2 * 6 + np.arange(12)[None, :] // 2).ravel()
        p = CSR((n, 36), np.arange(n + 1), agg, np.ones(n), sorted_rows=True)
        r = transpose(p)
        plan = plan_chain([r, a, p])
        assert plan.flop == plan.worst_flop
        assert plan.order == ((0, 1), 2)
        assert plan.fusable == "sandwich"

    def test_plan_flop_is_exact(self):
        a = random_csr(20, 20, 0.3, seed=2)
        b = random_csr(20, 20, 0.3, seed=3)
        plan = plan_chain([a, b])
        from repro.matrix.stats import total_flop

        assert plan.flop == total_flop(a, b)
        assert plan.saving == 1.0

    def test_single_matrix(self):
        a = random_csr(5, 5, 0.5, seed=4)
        plan = plan_chain([a])
        assert plan.order == 0
        assert plan.flop == 0

    def test_render(self):
        a = random_csr(6, 6, 0.5, seed=5)
        plan = plan_chain([a, a, a])
        s = plan.render(["R", "A", "P"])
        assert "R" in s and "A" in s and "P" in s and "x" in s

    def test_dimension_mismatch(self, rectangular_pair):
        a, b = rectangular_pair
        with pytest.raises(ShapeError):
            plan_chain([b, a])

    def test_empty_chain(self):
        with pytest.raises(ConfigError):
            plan_chain([])

    def test_too_long_chain(self):
        a = identity(3)
        with pytest.raises(ConfigError):
            plan_chain([a] * 9)

    def test_multiply_chain_correct(self):
        mats = [random_csr(12, 9, 0.3, seed=s) for s in (1,)] + [
            random_csr(9, 15, 0.3, seed=2),
            random_csr(15, 7, 0.4, seed=3),
        ]
        got = multiply_chain(mats, algorithm="hash")
        expected = mats[0].to_dense() @ mats[1].to_dense() @ mats[2].to_dense()
        np.testing.assert_allclose(got.to_dense(), expected, atol=1e-10)

    def test_multiply_chain_respects_given_plan(self):
        a = random_csr(10, 10, 0.3, seed=6)
        plan = plan_chain([a, a, a])
        got = multiply_chain([a, a, a], plan=plan)
        d = a.to_dense()
        np.testing.assert_allclose(got.to_dense(), d @ d @ d, atol=1e-10)

    @pytest.mark.parametrize("fuse", ["auto", "off"])
    def test_auto_engine_runs_small_stages_batched(self, monkeypatch, fuse):
        """``engine="auto"`` puts every stage on the fast engine, even one
        of a few hundred flops, with the faithful engine's result."""
        import repro.core.chain as chain_mod

        a = random_csr(10, 10, 0.3, seed=6)
        plan = plan_chain([a, a, a])
        assert max(s.flop for s in plan.stages) < 4096
        engines = []
        real = chain_mod.spgemm

        def spy(*args, **kwargs):
            engines.append(kwargs["engine"])
            return real(*args, **kwargs)

        monkeypatch.setattr(chain_mod, "spgemm", spy)
        kw = dict(algorithm="auto", fuse=fuse, plan=plan)
        got = multiply_chain([a, a, a], engine="auto", **kw)
        assert engines and set(engines) == {"fast"}
        ref = multiply_chain([a, a, a], engine="faithful", **kw)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64))

    def test_stage_at_cr_two_is_low_cr(self):
        """Table 4's CR boundary is a strict ``> 2``: an unsorted stage at
        exactly flop/nnz = 2 runs ``hash``, whose first-touch order here
        differs from ``hashvec``'s chunk order."""
        from repro import CSR, spgemm

        rng = np.random.default_rng(7)
        cols = rng.permutation(64)[:40]  # one unsorted row pattern
        a = CSR((6, 2), np.arange(0, 13, 2), np.tile([0, 1], 6), rng.random(12))
        b = CSR((2, 64), np.array([0, 40, 80]), np.tile(cols, 2), rng.random(80))
        plan = plan_chain([a, b])
        assert plan.stages[-1].flop == 2 * plan.stages[-1].nnz
        got = multiply_chain(
            [a, b], algorithm="auto", engine="auto", sort_output=False
        )
        runs = {
            alg: spgemm(a, b, algorithm=alg, engine="fast", sort_output=False)
            for alg in ("hash", "hashvec")
        }
        assert not np.array_equal(runs["hash"].indices, runs["hashvec"].indices)
        assert np.array_equal(got.indices, runs["hash"].indices)
        assert np.array_equal(got.data.view(np.uint64), runs["hash"].data.view(np.uint64))


class TestAmg:
    @pytest.fixture(scope="class")
    def poisson(self):
        a = mesh2d(16, 16)
        return add(a, identity(a.nrows, value=0.05))  # SPD shift

    def test_hierarchy_shapes(self, poisson):
        h = amg_setup(poisson)
        n, nc = poisson.nrows, h.coarse.nrows
        assert h.prolongation.shape == (n, nc)
        assert h.restriction.shape == (nc, n)
        assert 1.5 < h.coarsening_factor < 10.0

    def test_every_fine_point_aggregated(self, poisson):
        h = amg_setup(poisson)
        assert (h.aggregates >= 0).all()
        assert h.prolongation.row_nnz().min() == 1  # piecewise constant

    def test_galerkin_product_correct(self, poisson):
        h = amg_setup(poisson)
        dense = (
            h.restriction.to_dense()
            @ poisson.to_dense()
            @ h.prolongation.to_dense()
        )
        np.testing.assert_allclose(h.coarse.to_dense(), dense, atol=1e-10)

    def test_coarse_operator_symmetric(self, poisson):
        h = amg_setup(poisson)
        d = h.coarse.to_dense()
        np.testing.assert_allclose(d, d.T, atol=1e-10)

    def test_solver_converges(self, poisson):
        h = amg_setup(poisson)
        rng = np.random.default_rng(1)
        x_exact = rng.random(poisson.nrows)
        b = spmv(poisson, x_exact)
        x, history = two_level_solve(h, b, tol=1e-8)
        assert history[-1] < 1e-8
        np.testing.assert_allclose(x, x_exact, rtol=1e-5)

    def test_solver_beats_jacobi(self, poisson):
        from repro.apps.amg import _jacobi

        h = amg_setup(poisson)
        b = np.ones(poisson.nrows)
        _, history = two_level_solve(h, b, tol=1e-10, max_cycles=40)
        xj = np.zeros_like(b)
        for _ in range(2 * len(history)):  # twice the smoothing work
            xj = _jacobi(poisson, xj, b, 0.67, 1)
        jac_res = np.linalg.norm(b - spmv(poisson, xj)) / np.linalg.norm(b)
        assert history[-1] < jac_res / 10

    def test_residual_monotone_decreasing(self, poisson):
        h = amg_setup(poisson)
        b = np.ones(poisson.nrows)
        _, history = two_level_solve(h, b, tol=0.0, max_cycles=10)
        assert all(b <= a * 1.001 for a, b in zip(history, history[1:]))

    def test_invalid_inputs(self, rectangular_pair, poisson):
        with pytest.raises(ShapeError):
            amg_setup(rectangular_pair[0])
        with pytest.raises(ConfigError):
            amg_setup(poisson, theta=1.5)
        h = amg_setup(poisson)
        with pytest.raises(ShapeError):
            two_level_solve(h, np.ones(3))

    def test_theta_controls_aggregation(self, poisson):
        loose = amg_setup(poisson, theta=0.0)
        tight = amg_setup(poisson, theta=0.9)
        # a stricter threshold keeps fewer strong edges -> more aggregates
        assert tight.coarse.nrows >= loose.coarse.nrows
