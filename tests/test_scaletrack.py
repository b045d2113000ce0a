"""Flattening intervals, the stitched frequency, and BV accounting.

The (2, 3) curve has cylindrical excess E(r) = 3r exactly (see the excess
test oracle), which pins down the segmentation by hand: with threshold 0.1
the first admissible dyadic radius is 1/32, and the concentration budget
E(r) <= c_e m0 (r/t)^(2 - 2 delta2), with c_e = 2, first fails at r = t/4
because (t/r)^(1 - 2 delta2) = 4^(0.9375) > 2 while 2^(0.9375) < 2.  So the
intervals are exactly two octaves long."""

import dataclasses
import math

import numpy as np
import pytest

import qbranch as qb
from qbranch.scaletrack import IntervalRecord, JumpRecord, ProfileRecord


def hand_segmentation(excess_by_r, radii, cfg):
    """Independent reference scan for synthetic excess tables (no planes)."""
    intervals, gaps = [], []
    current = None
    power = 2.0 - 2.0 * cfg.delta2
    for r in radii:
        E = excess_by_r[r]
        if current is None:
            if E <= cfg.eps3_sq:
                m0 = max(E, cfg.eps_bar ** 2 * r ** power)
                current = [r, m0]
            else:
                gaps.append(r)
            continue
        t, m0 = current
        if E > cfg.eps3_sq:
            intervals.append((r, t, m0, "excess"))
            current = None
            gaps.append(r)
        elif E > cfg.c_e * m0 * (r / t) ** power:
            intervals.append((r, t, m0, "concentration"))
            current = [r, max(E, cfg.eps_bar ** 2 * r ** power)]
    if current is not None:
        intervals.append((cfg.r_floor, current[0], current[1], "floor"))
    return intervals, gaps


class TestIntervals:
    def test_curve23_segmentation(self, curve_cache):
        iv = qb.intervals_of_flattening(curve_cache(2, 3), eps3_sq=0.1)
        assert not iv.empty
        assert iv.intervals[0].t == pytest.approx(1.0 / 32.0)
        assert iv.gaps == [0.5, 0.25, 0.125, 0.0625]
        # concentration stops every interval after exactly two octaves
        for rec in iv.intervals[:-1]:
            assert rec.s / rec.t == pytest.approx(0.25)
            assert rec.end_reason == "concentration"
        assert iv.min_ratio() >= 0.25
        # m0 = E(t) = 3t here, far above the floor
        for rec in iv.intervals:
            assert rec.m0 == pytest.approx(3 * rec.t, rel=1e-3)

    def test_flat_sheets_one_interval(self, small_grid):
        from test_excess import flat_sheets
        f = flat_sheets(small_grid, 2, offsets=[(0, 0), (1, 0)])
        cfg = qb.ScaleTrackConfig(r_floor=2.0 ** -4)
        iv = qb.intervals_of_flattening(f, cfg=cfg)
        assert len(iv.intervals) == 1
        assert iv.intervals[0].reaches_floor
        assert iv.gaps == []

    def test_m0_floor(self):
        # synthetic excess far below the floor amplitude
        cfg = qb.ScaleTrackConfig(eps_bar=0.1)
        iv = qb.intervals_of_flattening(lambda r: 1e-9, cfg=cfg)
        power = 2 - 2 * cfg.delta2
        for rec in iv.intervals:
            assert rec.m0 >= cfg.eps_bar ** 2 * rec.t ** power - 1e-18

    def test_oscillating_excess_matches_hand_segmentation(self):
        cfg = qb.ScaleTrackConfig()
        radii = [cfg.r_top * 2.0 ** -k for k in range(12)]
        table = {r: (0.5 if k % 3 == 0 else 1e-3)
                 for k, r in enumerate(radii)}
        iv = qb.intervals_of_flattening(table, cfg=cfg)
        ref_int, ref_gaps = hand_segmentation(table, radii, cfg)
        assert len(iv.intervals) == len(ref_int)
        for rec, (s, t, m0, reason) in zip(iv.intervals, ref_int):
            assert rec.s == pytest.approx(s)
            assert rec.t == pytest.approx(t)
            assert rec.m0 == pytest.approx(m0)
            assert rec.end_reason == reason
        assert iv.gaps == ref_gaps

    def test_tiling_partition(self):
        cfg = qb.ScaleTrackConfig()
        radii = [cfg.r_top * 2.0 ** -k for k in range(12)]
        table = {r: (0.5 if k in (0, 4, 5) else 1e-3)
                 for k, r in enumerate(radii)}
        iv = qb.intervals_of_flattening(table, cfg=cfg)

        def member(rec, r):
            if r > rec.t * (1 + 1e-12):
                return False
            if rec.reaches_floor:
                return True  # the floor interval owns everything below t
            return r > rec.s * (1 + 1e-12)

        for r in radii:
            in_interval = sum(1 for rec in iv.intervals if member(rec, r))
            in_gap = int(r in iv.gaps)
            assert in_interval + in_gap == 1, r

    def test_no_admissible_radius_is_flagged_empty(self):
        iv = qb.intervals_of_flattening(lambda r: 0.9)
        assert iv.empty
        assert iv.intervals == []
        assert len(iv.gaps) == len(iv.radii)

    def test_dichotomy_detector(self, curve_cache):
        # subquadratic decay: intervals restart at a fixed scale ratio
        iv = qb.intervals_of_flattening(curve_cache(2, 3), eps3_sq=0.1)
        assert len(iv.intervals) >= 3
        assert iv.min_ratio() > 0
        # superquadratic synthetic decay: one interval to the grid floor
        iv2 = qb.intervals_of_flattening(lambda r: r ** 2.5)
        assert len(iv2.intervals) == 1
        assert iv2.intervals[0].reaches_floor

    def test_csv_export(self, curve_cache):
        iv = qb.intervals_of_flattening(curve_cache(2, 3), eps3_sq=0.1)
        lines = iv.to_csv().strip().split("\n")
        assert lines[0] == "j,s_j,t_j,m0_j,tilt_norm,end_reason,reaches_floor"
        assert len(lines) == len(iv.intervals) + 1


class TestUniversalFrequency:
    def test_curve23_constant_with_tiny_jumps(self, curve_cache):
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        prof = qb.universal_frequency(f, iv)
        assert len(prof.records) >= 6
        for rec in prof.records:
            assert abs(rec.I - 1.5) < 1e-3
        assert len(prof.jumps) == len(iv.intervals) - 1
        for jp in prof.jumps:
            assert abs(jp.I_left - jp.I_right) < 1e-3
        flagged = [rec for rec in prof.records if rec.jump_flag]
        assert len(flagged) == len(prof.jumps)

    def test_superquadratic_single_interval_no_jumps(self, full_grid):
        f = qb.homogeneous_map(2.5, grid=full_grid)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        assert len(iv.intervals) == 1 and iv.intervals[0].reaches_floor
        prof = qb.universal_frequency(f, iv)
        assert prof.jumps == []
        for rec in prof.records:
            assert abs(rec.I - 2.5) < 1e-3

    def test_points_per_octave(self, curve_cache):
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        dense = qb.universal_frequency(f, iv, points_per_octave=4)
        sparse = qb.universal_frequency(f, iv, points_per_octave=1)
        assert len(dense.records) > 2 * len(sparse.records)

    def test_truncated_interval_diagnostic(self, curve_cache):
        f = curve_cache(2, 3)
        tilt = np.array([[0.4, 0.0], [0.0, 0.0]])  # inside the plane bound,
        bad = qb.ScaleIntervals(                   # outside the reparam one
            intervals=[IntervalRecord(j=0, s=0.125, t=0.5, m0=0.1,
                                      plane=qb.Plane(tilt),
                                      end_reason="concentration")],
            gaps=[], radii=[0.5, 0.25, 0.125], excess_by_r={},
            config=qb.ScaleTrackConfig())
        prof = qb.universal_frequency(f, bad)
        assert prof.notes["truncated_intervals"] == [0]
        assert prof.records == []

    def test_empty_intervals_is_data_error(self, curve_cache):
        iv = qb.intervals_of_flattening(lambda r: 0.9)
        with pytest.raises(qb.DataError):
            qb.universal_frequency(curve_cache(2, 3), iv)

    def test_csv_exports(self, curve_cache):
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        prof = qb.universal_frequency(f, iv)
        rec_lines = prof.records_csv().strip().split("\n")
        assert rec_lines[0] == "r,j,I,jump_flag"
        jump_lines = prof.jumps_csv().strip().split("\n")
        assert jump_lines[0] == "t_j,I_left,I_right,m0_j"
        assert len(jump_lines) == len(prof.jumps) + 1


class TestSingleTable:
    """The stitched profile reads every record off one average-free part of
    the input: seams see one value from both sides, and a common affine map
    drops out with the sheet average."""

    @pytest.mark.parametrize("q,p,eps3_sq", [(2, 3, 0.1), (3, 4, 0.2)])
    def test_seams_read_one_value(self, curve_cache, q, p, eps3_sq):
        f = curve_cache(q, p)
        prof = qb.universal_frequency(
            f, qb.intervals_of_flattening(f, eps3_sq=eps3_sq))
        assert prof.jumps
        for jp in prof.jumps:
            assert jp.I_left == jp.I_right
        assert qb.bv_negative_variation(prof)["jump_part"] == 0.0

    def test_common_affine_map_drops_out(self, curve_cache):
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        A = np.array([[0.08, -0.05], [0.03, 0.06]])  # tilt norm 0.12
        x, y = f.grid.nodes_xy()
        affine = np.stack([A[0, 0] * x + A[0, 1] * y,
                           A[1, 0] * x + A[1, 1] * y], axis=-1)
        tilted = f.replace_values(f.values + affine[None])
        # the reference planes of the tilted map carry the same tilt
        iv_tilted = dataclasses.replace(iv, intervals=[
            dataclasses.replace(rec, plane=qb.Plane(rec.plane.tilt + A))
            for rec in iv.intervals])
        base = qb.universal_frequency(f, iv)
        moved = qb.universal_frequency(tilted, iv_tilted)
        assert moved.notes["truncated_intervals"] == []
        assert [(rec.r, rec.j) for rec in moved.records] == \
            [(rec.r, rec.j) for rec in base.records]
        for a, b in zip(base.records, moved.records):
            assert abs(a.I - b.I) <= 1e-12

    @pytest.mark.parametrize("t", [2.0 ** -9, 2.0])
    def test_refuses_interval_tops_off_the_grid(self, t):
        # on a 2^-10 grid a top of 2^-9 keeps the 9 rings of [1/2, 1] above
        # r_min / t, fewer than 12; a top of 2 is above r_max
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=64)
        f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
        iv = qb.ScaleIntervals(
            intervals=[IntervalRecord(j=0, s=t / 4, t=t, m0=0.1, plane=None,
                                      end_reason="floor")],
            gaps=[], radii=[t], excess_by_r={}, config=qb.ScaleTrackConfig())
        with pytest.raises(qb.RangeError):
            qb.universal_frequency(f, iv)


def synthetic_profile(I_by_r, jumps=()):
    records = [ProfileRecord(r=r, j=j, I=I)
               for (r, j, I) in I_by_r]
    interval_m0 = sorted({0.1 * rec.j + 0.05 for rec in records},
                         reverse=True)
    return qb.UniversalProfile(records=records, jumps=list(jumps),
                               interval_m0=interval_m0)


class TestBV:
    def test_constant_profile_zero(self):
        prof = synthetic_profile([(2.0 ** -k, 0, 1.5) for k in range(8)])
        out = qb.bv_negative_variation(prof)
        assert out["total"] == 0.0

    def test_injected_dip_recovered_exactly(self):
        radii = [2.0 ** -k for k in range(8)]
        depth = 0.125
        vals = [(r, 0, 1.5 - (depth if k == 4 else 0.0))
                for k, r in enumerate(radii)]
        prof = synthetic_profile(vals)
        out = qb.bv_negative_variation(prof)
        expected = math.log(2.5) - math.log(2.5 - depth)
        assert abs(out["total"] - expected) < 1e-12
        assert out["jump_part"] == 0.0

    def test_jump_accounting_exact(self):
        # two intervals meeting at t = 0.25 with an explicit seam jump
        records = [ProfileRecord(r=0.125, j=1, I=1.6),
                   ProfileRecord(r=0.25, j=1, I=1.58, jump_flag=True),
                   ProfileRecord(r=0.5, j=0, I=1.52)]
        jumps = [JumpRecord(t=0.25, I_left=1.58, I_right=1.55, m0=0.3)]
        prof = qb.UniversalProfile(records=records, jumps=jumps,
                                   interval_m0=[0.6, 0.3])
        out = qb.bv_negative_variation(prof)
        # ascending r: 1.6 -> 1.58 (ac), seam 1.58 -> 1.55 (jump),
        # then entry 1.55 -> 1.52 (ac)
        exp_ac = (math.log(2.6) - math.log(2.58)) \
            + (math.log(2.55) - math.log(2.52))
        exp_jump = math.log(2.58) - math.log(2.55)
        assert abs(out["ac_part"] - exp_ac) < 1e-14
        assert abs(out["jump_part"] - exp_jump) < 1e-14
        assert abs(out["total"] - (exp_ac + exp_jump)) < 1e-14

    def test_curve23_minimizer_budget(self, curve_cache):
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        prof = qb.universal_frequency(f, iv)
        out = qb.bv_budget(prof)
        assert out["total"] < 0.01
        assert out["budget"] > 0
        assert out["C_meas"] == out["total"] / out["budget"]

    def test_jump_part_shrinks_under_refinement(self):
        parts = []
        for n_theta in (128, 256):
            grid = qb.default_grid(r_min=2.0 ** -10, n_theta=n_theta)
            f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
            iv = qb.intervals_of_flattening(
                f, cfg=qb.ScaleTrackConfig(eps3_sq=0.1, r_floor=2.0 ** -8))
            prof = qb.universal_frequency(f, iv)
            parts.append(qb.bv_negative_variation(prof)["jump_part"])
        assert parts[1] <= max(parts[0] / 2, 1e-9)
