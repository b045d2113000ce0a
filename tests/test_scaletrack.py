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
from hypothesis import given, settings, strategies as st

import qbranch as qb
from qbranch import frequency
from qbranch.blowup import _branched_part
from qbranch.scaletrack import IntervalRecord, JumpRecord, ProfileRecord
from conftest import single


def hand_segmentation(excess_by_r, radii, cfg):
    """Independent reference scan for synthetic excess tables (no planes).
    At the floor radius only the threshold is tested: an open interval ends
    there by 'floor' (by 'excess' above the threshold), and none opens."""
    intervals, gaps = [], []
    current = None
    power = 2.0 - 2.0 * cfg.delta2
    for r in radii:
        E = excess_by_r[r]
        at_floor = r == cfg.r_floor
        if current is None:
            if E > cfg.eps3_sq:
                gaps.append(r)
            elif not at_floor:
                current = [r, max(E, cfg.eps_bar ** 2 * r ** power)]
            continue
        t, m0 = current
        if E > cfg.eps3_sq:
            intervals.append((r, t, m0, "excess"))
            current = None
            gaps.append(r)
        elif at_floor:
            intervals.append((r, t, m0, "floor"))
            current = None
        elif E > cfg.c_e * m0 * (r / t) ** power:
            intervals.append((r, t, m0, "concentration"))
            current = [r, max(E, cfg.eps_bar ** 2 * r ** power)]
    if current is not None:
        intervals.append((cfg.r_floor, current[0], current[1], "floor"))
    return intervals, gaps


@pytest.mark.parametrize("field, value", [
    ("eps3_sq", 0.0), ("eps3_sq", math.nan), ("eps_bar", 0.0),
    ("eps_bar", -1.0), ("eps_bar", 1.5), ("eps_bar", math.nan),
    ("delta2", 0.5), ("delta2", math.nan), ("c_e", 0.5), ("c_e", math.nan),
    ("tilt_jump", 0.0), ("tilt_jump", -1.0), ("tilt_jump", math.nan)])
def test_config_refuses_out_of_range_values(field, value):
    with pytest.raises(qb.ConfigError):
        qb.ScaleTrackConfig(**{field: value})


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

    def test_steep_scales_are_gaps(self, curve_cache):
        # at r = 1 the best plane of the (2,3) curve is the vertical e34
        # (no graph plane is optimal) and the least excess is Q = 2
        f = curve_cache(2, 3)
        res = qb.intervals_of_flattening(f, cfg=qb.ScaleTrackConfig(r_top=1.0))
        assert res.gaps[0] == 1.0
        assert res.excess_by_r[1.0] == pytest.approx(2.0, rel=1e-6)
        below = qb.intervals_of_flattening(f)
        assert [(i.s, i.t, i.m0, i.end_reason) for i in res.intervals] == \
            [(i.s, i.t, i.m0, i.end_reason) for i in below.intervals]

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

        # every radius above the floor lies in one ]s_j, t_j] or one gap
        for r in radii[:-1]:
            in_interval = sum(rec.s < r <= rec.t for rec in iv.intervals)
            in_gap = int(r in iv.gaps)
            assert in_interval + in_gap == 1, r
        assert iv.intervals[-1].end_reason == "floor"
        assert iv.intervals[-1].s == radii[-1] == cfg.r_floor

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


@st.composite
def scans(draw):
    """A random config and excess table r -> (E, plane) on its dyadic
    radii, the floor on the ladder or between two of its radii."""
    r_top = draw(st.sampled_from([1.0, 0.5, 0.3]))
    k = draw(st.integers(1, 14))
    cfg = qb.ScaleTrackConfig(
        eps3_sq=draw(st.floats(1e-3, 1.0)), eps_bar=draw(st.floats(1e-3, 1.0)),
        delta2=draw(st.floats(0.01, 0.45)), c_e=draw(st.floats(1.0, 4.0)),
        tilt_jump=draw(st.floats(0.01, 1.0)), r_top=r_top,
        r_floor=r_top * 2.0 ** -k * draw(st.sampled_from([1.0, 1.3])))
    excess = draw(st.lists(st.floats(-8.0, 0.0).map(lambda x: 10.0 ** x),
                           min_size=k + 1, max_size=k + 1))
    tilt = st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=4).map(
        lambda a: qb.Plane(np.reshape(a, (2, 2))))
    planes = draw(st.one_of(
        st.just([None] * (k + 1)),
        st.lists(tilt, min_size=k + 1, max_size=k + 1)))

    def table(r):
        i = round(math.log2(r_top / r))
        return excess[i], planes[i]
    return cfg, table, planes[0] is None


class TestScanProperties:
    @settings(max_examples=300)
    @given(scan=scans())
    def test_every_interval_has_length_and_one_floor(self, scan):
        cfg, table, planeless = scan
        iv = qb.intervals_of_flattening(table, cfg=cfg)
        recs = iv.intervals
        assert all(rec.s < rec.t for rec in recs)
        assert [rec.j for rec in recs] == list(range(len(recs)))
        # a floor record is the last one, at the floor radius
        for rec in recs:
            if rec.reaches_floor:
                assert rec is recs[-1] and rec.s == cfg.r_floor
        # a seam is where interval j starts at interval j-1's bottom
        for j in range(len(recs)):
            assert iv.coinciding(j) == (j > 0 and abs(
                recs[j].t - recs[j - 1].s) <= 1e-12 * recs[j].t)
        # every scanned radius above the floor lies in one interval or gap
        for r in iv.radii:
            if r > cfg.r_floor:
                assert sum(rec.s < r <= rec.t for rec in recs) \
                    + iv.gaps.count(r) == 1, r
        if planeless:
            ref_int, ref_gaps = hand_segmentation(iv.excess_by_r, iv.radii,
                                                  cfg)
            assert [(rec.s, rec.t, rec.m0, rec.end_reason)
                    for rec in recs] == ref_int
            assert iv.gaps == ref_gaps


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

    def test_single_valued_map_is_measured_itself(self, full_grid):
        # its average-free part is zero, so the records read the map, as
        # singularity_degree does
        f = qb.homogeneous_map(2.0, grid=full_grid)
        assert f.q == 1
        prof = qb.universal_frequency(f, qb.intervals_of_flattening(f))
        assert len(prof.records) >= 2
        for rec in prof.records:
            assert rec.I == single(f, rec.r).I
            assert abs(rec.I - 2.0) < 1e-3
        assert "average_free" not in f._cache
        assert qb.bv_negative_variation(prof)["total"] <= 0.01

    def test_points_per_octave(self, curve_cache):
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        dense = qb.universal_frequency(f, iv, points_per_octave=4)
        sparse = qb.universal_frequency(f, iv, points_per_octave=1)
        assert len(dense.records) > 2 * len(sparse.records)

    @pytest.mark.parametrize("ppo", [3, 5, 6, 7, 0])
    def test_points_per_octave_must_divide_the_rings(self, curve_cache, ppo):
        # the default grid has 8 rings per octave
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        with pytest.raises(qb.ConfigError):
            qb.universal_frequency(f, iv, points_per_octave=ppo)

    @pytest.mark.parametrize("ppo", [1, 2])
    def test_rings_per_octave_must_be_whole(self, ppo):
        # a ratio-1.5 grid has 1.71 rings per octave; rounded to 2, its
        # records lay 1.17 (ppo 1) or 0.585 (ppo 2) octaves apart
        grid = qb.PolarGrid(radii=1.5 ** np.arange(-24.0, 1.0), n_theta=128)
        f = qb.homogeneous_map(1.5, grid=grid)
        iv = qb.intervals_of_flattening(
            lambda r: 1e-9, cfg=qb.ScaleTrackConfig(r_floor=2.0 ** -6))
        with pytest.raises(qb.ConfigError, match="not a whole number"):
            qb.universal_frequency(f, iv, points_per_octave=ppo)

    @pytest.mark.parametrize("cutoff", [qb.RAMP, qb.SHARP])
    @pytest.mark.parametrize("q,p,eps3_sq", [(2, 3, 0.1), (3, 4, 0.2)])
    def test_stitched_records_are_the_one_radius_records(
            self, curve_cache, q, p, eps3_sq, cutoff):
        f = curve_cache(q, p)
        v = _branched_part(f)
        prof = qb.universal_frequency(
            f, qb.intervals_of_flattening(f, eps3_sq=eps3_sq),
            points_per_octave=2, cutoff=cutoff)
        assert prof.records and prof.jumps
        for rec in prof.records:
            assert rec.I == qb.frequency_profile(
                v, [rec.r], cutoff).records[0].I
        for jp in prof.jumps:
            assert jp.I_left == qb.frequency_profile(
                v, [jp.t], cutoff).records[0].I

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

    def test_empty_is_read_off_the_intervals(self, curve_cache):
        iv = qb.ScaleIntervals(intervals=[], gaps=[], radii=[],
                               excess_by_r={}, config=qb.ScaleTrackConfig())
        assert iv.empty
        with pytest.raises(qb.DataError, match="no flattening intervals"):
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

    @pytest.mark.parametrize("q,p", [(2, 3), (3, 4), (3, 5), (4, 5)])
    def test_a_seam_is_the_record_at_its_top(self, curve_cache, q, p):
        # a jump sits at the top t_j of a recorded interval j, on the
        # record of j there, and never at a radius outside every ]s_j, t_j]
        f = curve_cache(q, p)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.2)
        prof = qb.universal_frequency(f, iv)
        assert prof.jumps
        by_place = {(rec.j, rec.r): rec for rec in prof.records}
        for jp in prof.jumps:
            assert any(rec.s < jp.t <= rec.t for rec in iv.intervals)
            (j,) = [rec.j for rec in iv.intervals if rec.t == jp.t]
            top = by_place[(j, jp.t)]
            assert top.jump_flag and jp.I_left == jp.I_right == top.I
        assert sum(rec.jump_flag for rec in prof.records) == len(prof.jumps)

    def test_a_zero_length_interval_changes_nothing(self, curve_cache):
        # the scan stops at the floor radius, so no interval is ]r_floor,
        # r_floor]; one would hold no radius, and the records and jumps of
        # the floor interval are those of a concentration end there
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.2)
        assert all(rec.s < rec.t for rec in iv.intervals)
        last = iv.intervals[-1]
        assert last.end_reason == "floor"
        assert last.s == iv.config.r_floor < last.t
        empty = IntervalRecord(j=last.j + 1, s=last.s, t=last.s, m0=1e-3,
                               plane=last.plane, end_reason="floor")
        padded = dataclasses.replace(iv, intervals=iv.intervals[:-1] + [
            dataclasses.replace(last, end_reason="concentration"), empty])
        kept = qb.universal_frequency(f, iv)
        moved = qb.universal_frequency(f, padded)
        assert kept.records and kept.jumps
        assert kept.records_csv() == moved.records_csv()
        assert kept.jumps_csv() == moved.jumps_csv()
        assert kept.notes == moved.notes
        assert moved.interval_m0 == kept.interval_m0 + [empty.m0]
        for key in ("total", "ac_part", "jump_part"):
            assert qb.bv_budget(kept)[key] == qb.bv_budget(moved)[key]

    def test_each_radius_is_evaluated_once(self, curve_cache, monkeypatch):
        f = curve_cache(2, 3)
        iv = qb.intervals_of_flattening(f, eps3_sq=0.2)
        calls, quantities = [], frequency._quantities

        def spy(g, s, cutoff):
            calls.append(list(s))
            return quantities(g, s, cutoff)

        monkeypatch.setattr(frequency, "_quantities", spy)
        prof = qb.universal_frequency(f, iv, points_per_octave=2)
        assert prof.jumps
        assert calls == [[rec.r for rec in prof.records]]

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


class TestRefusals:
    def test_floor_must_lie_below_the_top(self):
        with pytest.raises(qb.ConfigError, match="r_floor < r_top"):
            qb.ScaleTrackConfig(r_floor=0.5, r_top=0.5)

    def test_unknown_source_kind(self):
        with pytest.raises(qb.ConfigError, match="source must be"):
            qb.intervals_of_flattening(0.5)

    @pytest.mark.parametrize("n", [0, 1])
    def test_variation_needs_two_records(self, n):
        profile = qb.UniversalProfile(
            records=[ProfileRecord(r=0.5, j=0, I=1.5, jump_flag=False)][:n],
            jumps=[], interval_m0=[])
        with pytest.raises(qb.DataError, match="at least 2 records"):
            qb.bv_negative_variation(profile)
