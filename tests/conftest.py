import json

import numpy as np
import pytest
from hypothesis import settings

import qbranch as qb
from qbranch.curves import _json_safe

# every property test runs the same few examples on every run and host, and
# leaves no example database behind
settings.register_profile("qbranch", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("qbranch")


#: the acceptance curves (Q, p)
CURVE_SET = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]


@pytest.fixture(scope="session")
def full_grid():
    """The default laboratory grid (16 octaves, 512 angles)."""
    return qb.default_grid()


@pytest.fixture(scope="session")
def small_grid():
    """Cheap grid for algebraic identities that hold on any grid."""
    return qb.default_grid(r_min=2.0 ** -6, n_theta=64)


@pytest.fixture(scope="session")
def curve_cache(full_grid):
    cache = {}

    def get(q, p, h_coeffs=()):
        key = (q, p, tuple(h_coeffs))
        if key not in cache:
            cache[key] = qb.make_multigraph(
                qb.CurveSpec(q, p, h_coeffs), full_grid)
        return cache[key]

    return get


def union_of(grid, *parts):
    """The union of the curves c.(Q, p) over parts (c, Q, p) on grid: each
    curve's sheets times c, their monodromy cycles side by side.  It is
    holomorphic, so area-minimizing, its sheet average is 0 and its degree
    is the least p/Q.  It claims no curve."""
    maps = [qb.make_multigraph(qb.CurveSpec(q, p), grid) for _, q, p in parts]
    starts = np.cumsum([0] + [f.q for f in maps])
    label = "+".join(f"{'' if c == 1 else c}({q},{p})" for c, q, p in parts)
    return qb.QFunction(
        grid=grid,
        values=np.concatenate([c * f.values for (c, _, _), f in zip(parts,
                                                                   maps)]),
        monodromy=np.concatenate([f.monodromy + k
                                  for f, k in zip(maps, starts)]),
        metadata={"kind": "union", "label": label})


@pytest.fixture(scope="session")
def union_curve(full_grid):
    """The union (2,3) u 2.(3,4) on the default grid: sheets +-z^{3/2} and
    2 zeta_3^k z^{4/3}, two monodromy cycles of lengths 2 and 3.  Its
    degree is 4/3, which the sharp I(s) approaches at the slow rate
    s^{1/3}."""
    return union_of(full_grid, (1, 2, 3), (2, 3, 4))


@pytest.fixture(scope="session")
def impostor(full_grid):
    """The (2,3) curve's average-free part times 1 + 0.1 sin(2 pi log2 r)
    on the default grid: no minimizer, whose frequency oscillates in log r
    and has no limit.  It claims no curve."""
    v = qb.average_free_part(qb.make_multigraph(qb.CurveSpec(2, 3),
                                                full_grid))
    wobble = 1.0 + 0.1 * np.sin(2 * np.pi * np.log2(full_grid.radii))
    return qb.QFunction(grid=full_grid,
                        values=v.values * wobble[None, :, None, None],
                        monodromy=v.monodromy.copy(),
                        metadata={"kind": "impostor"})


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def single(f, s, cutoff=qb.RAMP):
    """The record of f at the one scale s: a profile of that radius."""
    return qb.frequency_profile(f, [s], cutoff).records[0]


def whole_gradients(f):
    """f's whole derivatives du_dr and du_dtheta / r, (Q, R, T, n) each:
    the ring blocks QFunction.gradients hands out, concatenated."""
    blocks = f.gradients(lambda x, du_dr, du_dth: (du_dr, du_dth))
    return tuple(np.concatenate(d, axis=1) for d in zip(*blocks))


def random_smooth_qfunction(grid, q, rng, radial_degree=2, angular_modes=3):
    """Random piecewise-smooth Q-valued map with identity monodromy:
    trigonometric polynomials in the angle with polynomial radial profiles,
    sheets well separated by distinct constant offsets."""
    r = grid.radii[None, :, None]
    th = grid.angles[None, None, :]
    values = np.zeros((q, grid.n_rings, grid.n_theta, 2))
    for k in range(q):
        for comp in range(2):
            field = np.zeros((1, grid.n_rings, grid.n_theta))
            for m in range(angular_modes + 1):
                coeffs = rng.normal(size=radial_degree + 1)
                radial = sum(c * r ** j for j, c in enumerate(coeffs))
                phase = rng.uniform(0, 2 * np.pi)
                field = field + radial * np.cos(m * th + phase)
            values[k, :, :, comp] = field[0]
        values[k, :, :, 0] += 10.0 * k  # keep sheets apart
    return qb.QFunction(grid=grid, values=values,
                        monodromy=np.arange(q),
                        metadata={"kind": "random-smooth"})


def save_qfunction_text(f, path):
    """The text writer of the format before save_qfunction's, kept as the
    reference for load_qfunction's "qbranch-qfunction-1" reader: the JSON
    header line, the column line ring,angle,sheet,re,im, then one row per
    sample in (ring, angle, sheet) order, each sample written with %.17g."""
    header = {
        "format": "qbranch-qfunction-1",
        "q": f.q,
        "n_rings": f.grid.n_rings,
        "n_theta": f.grid.n_theta,
        "r_min": f.grid.r_min,
        "r_max": f.grid.r_max,
        "radii": f.grid.radii.tolist(),
        "center": list(f.grid.center),
        "monodromy": f.monodromy.tolist(),
        "metadata": _json_safe(f.metadata),
    }
    Q, R, T, _ = f.values.shape
    rows = [f"{a},{k},%.17g,%.17g" for a in range(T) for k in range(Q)]
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write("ring,angle,sheet,re,im\n")
        for i in range(R):
            ring_rows = f"{i}," + f"\n{i},".join(rows) + "\n"
            samples = f.values[:, i].transpose(1, 0, 2).ravel()
            fh.write(ring_rows % tuple(samples.tolist()))
    return path


def save_curve(path, grid, text=False):
    """Save the (2,3) curve on grid to path, as a text file of the format
    before save_qfunction's if text, else with save_qfunction."""
    f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
    (save_qfunction_text if text else qb.save_qfunction)(f, path)
    return path


#: the sample damage write_corrupt_qfunction makes, per format (text or not)
SAMPLE_DAMAGE = {
    True: ("truncated", "duplicated", "index_out_of_range", "nan_sample"),
    False: ("truncated", "trailing", "nan_sample", "inf_sample"),
}


def write_corrupt_qfunction(path, grid, kind, text=False):
    """Save the (2,3) curve on grid to path with its samples damaged.  In a
    text file 'truncated' drops the last 10 rows, 'duplicated' replaces the
    last row by the first, 'index_out_of_range' sets the last row's ring
    index to n_rings and 'nan_sample' makes its real part NaN.  In a raw
    file 'truncated' drops the last 10 samples' bytes, 'trailing' appends
    the first sample's bytes once more, and 'nan_sample' and 'inf_sample'
    make the last sample's real and imaginary part NaN and inf."""
    if kind not in SAMPLE_DAMAGE[text]:
        raise ValueError(f"unknown corruption {kind!r}")
    save_curve(path, grid, text)
    head, body = path.read_bytes().split(b"\n", 1)
    if text:
        columns, *rows = body.decode().splitlines()
        last = rows[-1].split(",")  # ring,angle,sheet,re,im
        if kind == "truncated":
            rows = rows[:-10]
        elif kind == "duplicated":
            rows[-1] = rows[0]
        elif kind == "index_out_of_range":
            rows[-1] = ",".join([str(grid.n_rings)] + last[1:])
        else:
            rows[-1] = ",".join(last[:3] + ["nan"] + last[4:])
        body = "\n".join([columns] + rows).encode() + b"\n"
    elif kind == "truncated":
        body = body[:-160]
    elif kind == "trailing":
        body = body + body[:16]
    else:
        samples = np.frombuffer(body, dtype="<f8").copy()
        if kind == "nan_sample":
            samples[-2] = np.nan
        else:
            samples[-1] = np.inf
        body = samples.tobytes()
    path.write_bytes(head + b"\n" + body)
    return path


def write_qfunction_bad_radii(path, grid, kind, text=False):
    """Save the (2,3) curve on grid to path (as a text file if text) with
    the header's radii damaged: 'short' drops the last radius, 'moved'
    doubles all of them (so they disagree with r_min and r_max),
    'not_geometric' moves one inner radius by 1% and 'not_numbers'
    replaces them by strings."""
    save_curve(path, grid, text)

    def damage(radii):
        if kind == "short":
            return radii[:-1]
        if kind == "moved":
            return [2.0 * r for r in radii]
        if kind == "not_geometric":
            return radii[:3] + [1.01 * radii[3]] + radii[4:]
        if kind == "not_numbers":
            return [str(r) + "m" for r in radii]
        raise ValueError(f"unknown radii damage {kind!r}")

    return edit_qfunction_header(path, lambda h: {
        **h, "radii": damage(h["radii"])})


def edit_qfunction_header(path, edit):
    """Replace the JSON header line of a QFunction file of either format
    by edit(header), leaving the bytes after it as they are."""
    head, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(head)), sort_keys=True)
                     .encode() + b"\n" + rest)
    return path
