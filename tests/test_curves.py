"""Ground-truth multigraphs and synthetic homogeneous maps."""

import numpy as np
import pytest

import qbranch as qb


class TestCurveSpec:
    def test_rejects_non_coprime(self):
        with pytest.raises(qb.SpecError):
            qb.CurveSpec(2, 4)

    def test_rejects_p_below_q(self):
        with pytest.raises(qb.SpecError):
            qb.CurveSpec(3, 2)

    def test_rejects_low_order_perturbation(self):
        with pytest.raises(qb.SpecError):
            qb.CurveSpec(2, 3, (1.0,))
        with pytest.raises(qb.SpecError):
            qb.CurveSpec(2, 3, (0.0, 1.0))

    def test_analytic_degree(self):
        assert qb.analytic_degree(qb.CurveSpec(2, 3))["value"] == 1.5
        assert qb.analytic_degree(qb.CurveSpec(3, 5))["value"] == 5 / 3
        ref = qb.analytic_degree(qb.CurveSpec(2, 5, (0, 0, 1)))
        assert ref["value"] == 2.0
        assert ref["kind"] == "reference"
        assert ref["branch_degree"] == 2.5


class TestEvaluateSheets:
    def test_square_roots_at_one(self):
        pt = qb.evaluate_sheets(qb.CurveSpec(2, 3), 1.0)
        assert np.allclose(pt.canonical(), [[-1.0, 0.0], [1.0, 0.0]],
                           atol=1e-15)

    def test_square_roots_at_minus_one(self):
        pt = qb.evaluate_sheets(qb.CurveSpec(2, 3), -1.0)
        assert np.allclose(sorted(pt.as_complex(), key=lambda w: w.imag),
                           [-1j, 1j], atol=1e-12)

    def test_cube_roots_of_unity(self):
        pt = qb.evaluate_sheets(qb.CurveSpec(3, 4), 1.0)
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        got = np.sort_complex(pt.as_complex())
        assert np.allclose(got, np.sort_complex(expected), atol=1e-12)

    def test_origin_extends_by_zero(self):
        pt = qb.evaluate_sheets(qb.CurveSpec(2, 3), 0.0)
        assert np.allclose(pt.vectors, 0.0)

    def test_sheet_product_identity_random_points(self, rng):
        # prod_i (w_i - h(z)) = (-1)^(Q+1) z^p
        for spec in (qb.CurveSpec(2, 3), qb.CurveSpec(3, 4),
                     qb.CurveSpec(4, 5), qb.CurveSpec(2, 5, (0, 0, 0.3))):
            for _ in range(50):
                z = rng.normal() + 1j * rng.normal()
                w = qb.evaluate_sheets(spec, z).as_complex()
                prod = np.prod(w - spec.h(z))
                expected = (-1) ** (spec.q + 1) * z ** spec.p
                assert abs(prod - expected) <= 1e-10 * max(abs(expected), 1e-30)


class TestMultigraph:
    def test_monodromy_is_q_cycle(self, curve_cache):
        f = curve_cache(2, 3)
        sel = qb.SheetSelection(sheets=f.values[:, -1], monodromy=f.monodromy,
                                closed=True)
        assert sel.monodromy_cycle_lengths() == [2]
        f35 = curve_cache(3, 5)
        sel35 = qb.SheetSelection(sheets=f35.values[:, -1],
                                  monodromy=f35.monodromy, closed=True)
        assert sel35.monodromy_cycle_lengths() == [3]

    def test_matches_closed_form_tracking(self, full_grid):
        # tracked evaluation around a ring agrees with the stored selection
        f = qb.make_multigraph(qb.CurveSpec(2, 3), full_grid)
        ring = full_grid.n_rings - 1
        pts = [qb.QPoint(f.values[:, ring, j]) for j in range(0, 512, 8)]
        sel = qb.track_selection(pts, closed=True)
        assert np.array_equal(sel.monodromy, f.monodromy)

    def test_average_equals_perturbation(self, curve_cache, full_grid):
        f = curve_cache(2, 5, (0, 0, 1))
        r = full_grid.radii[40]
        th = full_grid.angles[17]
        z = r * np.exp(1j * th)
        avg = np.mean(f.values[:, 40, 17], axis=0)
        assert abs(avg[0] - (z ** 2).real) < 1e-12
        assert abs(avg[1] - (z ** 2).imag) < 1e-12

    def test_average_vanishes_without_perturbation(self, curve_cache):
        for (q, p) in [(2, 3), (3, 4), (4, 5)]:
            f = curve_cache(q, p)
            avg = np.mean(f.values, axis=0)
            assert np.abs(avg).max() < 1e-12

    def test_selection_margin(self, curve_cache):
        assert curve_cache(2, 3).check_selection() < 1.0
        assert curve_cache(2, 5, (0, 0, 1)).check_selection() < 1.0

    def test_refinement_error_on_coarse_angles(self):
        # angular step (p/q) d_theta exceeds half the sheet gap sin(pi/q)
        grid = qb.default_grid(r_min=2.0 ** -8, n_theta=64)
        with pytest.raises(qb.RefinementError):
            qb.make_multigraph(qb.CurveSpec(6, 35), grid)

    def test_refinement_invariance(self):
        # doubling the angular resolution leaves shared samples unchanged
        g1 = qb.default_grid(r_min=2.0 ** -8, n_theta=128)
        g2 = qb.default_grid(r_min=2.0 ** -8, n_theta=256)
        f1 = qb.make_multigraph(qb.CurveSpec(3, 4), g1)
        f2 = qb.make_multigraph(qb.CurveSpec(3, 4), g2)
        assert np.abs(f1.values - f2.values[:, :, ::2]).max() < 1e-14


class TestHomogeneousMap:
    def test_antipodal_boundary_gives_linear_pair(self, small_grid):
        # boundary {+e, -e} extends to the two-valued pair {r e, -r e}
        e = np.array([[1.0, 0.0], [-1.0, 0.0]])
        f = qb.homogeneous_map(1.0, boundary=qb.constant_profile(e),
                               grid=small_grid)
        r = small_grid.radii[None, :, None]
        assert np.allclose(np.abs(f.values[..., 0]), np.broadcast_to(
            r, f.values[..., 0].shape))
        assert np.allclose(f.values[..., 1], 0.0)
        assert np.allclose(f.values.sum(axis=0), 0.0)
        assert np.array_equal(f.monodromy, [0, 1])

    def test_homogeneity_by_construction(self, small_grid):
        f = qb.homogeneous_map(1.5, grid=small_grid)
        assert qb.homogeneity_check(f, 1.5) < 1e-12

    def test_spiral_matches_multigraph(self, full_grid):
        f_spiral = qb.homogeneous_map(1.5, grid=full_grid)
        f_curve = qb.make_multigraph(qb.CurveSpec(2, 3), full_grid)
        # both are the antipodal pair {w, -w}; a componentwise sort over the
        # sheet axis compares the unordered values at every node
        d = np.sort(f_spiral.values, axis=0) - np.sort(f_curve.values, axis=0)
        assert np.abs(d).max() < 1e-12

    def test_spiral_profile_rejects_irrational(self):
        with pytest.raises(qb.ConfigError):
            qb.spiral_profile(np.pi)


class TestFileFormat:
    def test_roundtrip(self, tmp_path, small_grid):
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        path = tmp_path / "curve.qfn"
        qb.save_qfunction(f, path)
        g = qb.load_qfunction(path)
        assert np.array_equal(g.values, f.values)  # bit-exact
        assert np.array_equal(g.monodromy, f.monodromy)
        assert g.grid.n_theta == f.grid.n_theta
        assert g.metadata["kind"] == "curve"

    def test_rows_match_the_per_row_format(self, tmp_path, small_grid):
        """The one-shot row formatting writes the bytes of the plain
        per-row f-string loop, signed zeros and subnormals included."""
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        special = np.array([-0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300, -1e300])
        values = f.values.copy()
        values.flat[:special.size] = special
        values.flat[-special.size:] = special[::-1]
        f = f.replace_values(values)
        path = tmp_path / "special.qfn"
        qb.save_qfunction(f, path)
        text = path.read_text()
        header, columns, body = text.split("\n", 2)
        assert columns == "ring,angle,sheet,re,im"
        Q, R, T, _ = f.values.shape
        rows = []
        for i in range(R):
            for j in range(T):
                for k in range(Q):
                    re, im = f.values[k, i, j]
                    rows.append(f"{i},{j},{k},{re:.17g},{im:.17g}\n")
        assert body == "".join(rows)
        assert "-0," in body and "4.9406564584124654e-324" in body
        assert np.array_equal(qb.load_qfunction(path).values, f.values)

    def test_roundtrip_of_a_grid_with_ratio_one_and_a_half(self, tmp_path):
        # 1.5 is no ratio 2^(1/k): only the stored radii can describe it
        grid = qb.PolarGrid(radii=1.5 ** np.arange(-11.0, 1.0), n_theta=64)
        f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
        path = tmp_path / "ratio15.qfn"
        qb.save_qfunction(f, path)
        g = qb.load_qfunction(path)
        assert np.array_equal(g.grid.radii, grid.radii)  # bit-exact
        assert np.array_equal(g.values, f.values)
        assert np.array_equal(g.monodromy, f.monodromy)

    def test_header_without_radii_loads(self, tmp_path, small_grid):
        from conftest import edit_qfunction_header
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        path = tmp_path / "old.qfn"
        qb.save_qfunction(f, path)
        edit_qfunction_header(path, lambda h: {
            k: v for k, v in h.items() if k != "radii"})
        g = qb.load_qfunction(path)
        assert np.allclose(g.grid.radii, small_grid.radii, rtol=1e-14,
                           atol=0.0)
        assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize("kind", ["short", "moved", "not_geometric",
                                      "not_numbers"])
    def test_rejects_radii_that_describe_no_grid(self, tmp_path, small_grid,
                                                 kind):
        from conftest import write_qfunction_bad_radii
        path = write_qfunction_bad_radii(tmp_path / "bad.qfn", small_grid,
                                         kind)
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(path)

    @pytest.mark.parametrize("kind", ["truncated", "duplicated",
                                      "index_out_of_range", "nan_sample"])
    def test_rejects_damaged_samples(self, tmp_path, small_grid, kind):
        from conftest import write_corrupt_qfunction
        path = write_corrupt_qfunction(tmp_path / "bad.qfn", small_grid, kind)
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(path)

    def test_rejects_unreadable_file(self, tmp_path):
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(tmp_path / "missing.qfn")
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(tmp_path)  # a directory

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.qfn"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(path)
