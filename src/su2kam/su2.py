"""SU(2) as unit quaternions, with its Lie algebra in a torus-adapted basis.

Group elements are unit quaternions q = (w, x, y, z).  Algebra vectors are
3-vectors (c_e, c_x, c_y) in the orthogonal basis (e, jx, jy), normalised so
that

    exp(e) = -Id        and        Ad(exp(t*e)).j = exp(2*pi*i*t) * j,

where j = jx + i*jy is the complex coordinate on the plane orthogonal to the
maximal torus.  In quaternion language (e, jx, jy) are (pi*i, pi*j, pi*k).
With this scaling the preimage lattice of the center {+-Id} in the torus
direction is Z*e (exp(n*e) = (-1)^n Id), the root value of exp(t*e) is t, and
the bi-invariant distance is scaled so that d(Id, -Id) = 1.

Vectorised helpers (quat_*, alg_*, torus_quat) act on arrays with a
trailing axis of length 4 (quaternions) or 3 (algebra coordinates).  The
grids they return keep that shape but are allocated component-major: a
(..., 4) grid is the transposed view of a C-ordered (4, ...) array, so each
q[..., i] is contiguous.  Each grid formula of the scheme has its one home
here: the exponential and logarithm of the algebra, the torus exponential
exp(theta*e), and the quaternion mean.  Elementwise results do not depend on
the layout; the mean's rounding does, so `quat_mean` sums one block at a
time in C order, headed by the running total, with the bits of one C-order
sum.  GroupElement holds one validated element, as read from configs and
stored in conjugation factors.

A pointwise pass over a grid runs through `blockwise`, in blocks of whole
lines along the last axis (`point_blocks`): a grid's lines are shared
equally over ceil(points / BLOCK_POINTS) blocks (so a 1D grid, one line, is
one block), and each block is the same slice of every component's
contiguous row.  A pass run in place writes its result over the block it
read.  A grid that is computed line by line, as exp(Y) is from the
last-axis inverse FFT of Y, enters as a line source (see `blockwise`),
which builds one block of lines at a time, so that it is never a whole grid
beside the grid it feeds.  So a pass holds block-sized temporaries beside
its whole-grid operands, and every point is computed as it is on the whole
grid, bit for bit.  A transform reads every point, so it is whole-grid, but
it takes one component at a time (`component_groups`).  A grid of one block
(up to 8192 points: a 2D grid up to 90^2, and any 1D grid the scheme
reaches in practice) runs its passes on the whole grid, a line source built
whole, with nothing allocated beside them, and its transforms on all
components at once.
"""

from __future__ import annotations

import math

import numpy as np


# points per block of a pointwise pass, which fits a pass's temporaries in cache
BLOCK_POINTS = 8192


class CutLocusError(ValueError):
    """Principal logarithm requested within the cut-locus margin of -Id."""


# ---------------------------------------------------------------------------
# raw quaternion arrays


def components_first(q):
    """View of q with its trailing component axis moved to the front."""
    return q.transpose((q.ndim - 1,) + tuple(range(q.ndim - 1)))


def components_last(c):
    """View of a component-major array c with its components trailing."""
    return c.transpose(tuple(range(1, c.ndim)) + (0,))


def _rows(grid):
    """View of a component-major grid as one contiguous row per component."""
    c = components_first(grid)
    return c.reshape(c.shape[0], -1)


def point_blocks(shape) -> list:
    """Slices of the flat points of a grid of (spatial) shape `shape` that
    cover it in whole lines along its last axis: ceil(points / BLOCK_POINTS)
    blocks, or one per line when the lines are fewer, the lines shared
    equally, so that no block is a short remainder."""
    points = math.prod(shape)
    line = math.prod(shape[-1:])
    lines = points // line
    count = min(lines, -(-points // BLOCK_POINTS))
    return [slice(line * (lines * i // count), line * (lines * (i + 1) // count))
            for i in range(count)]


def component_groups(grid) -> list:
    """Slices of the component axis for a whole-grid stage: all components
    at once on a grid of one block, as blockwise runs it, else one at a
    time, so that the stage's whole-grid temporaries hold one component."""
    c = grid.shape[-1]
    return [slice(None)] if grid.size <= c * BLOCK_POINTS else [slice(i, i + 1) for i in range(c)]


def blockwise(source, *passes, into=None):
    """Apply pointwise passes in turn to a grid, one point_blocks block at a
    time.

    source is a component-major grid (..., c), one point (c,) that every
    block shares, a line source, or a function of no arguments that builds
    one of these.  A line source is any object with a `block` method: it
    has the `shape` of the grid it stands for, (..., c); `grid()` builds
    that whole component-major grid, and `block(points)` the component rows
    (c, n) of one point_blocks slice, a block of whole lines.

    Without `into`, the last pass's results fill a new component-major grid
    of source's points, a scalar grid if that pass drops the component
    axis.  With `into`, a component-major grid, the last pass takes each
    block and the same block of `into`, and its result is written over that
    block of `into`, which is returned.  An `into` of one point is not
    written: the last pass takes each block and the point, and its results
    fill a new grid as without `into`.

    A grid of at most BLOCK_POINTS points is one block: the passes take the
    whole grids, a line source's grid() among them, and the last pass's
    result is returned, with no grid allocated or written beside it, so the
    caller rebinds `into` to the result.  A source that blockwise builds is
    freed once the first pass has read it, since no caller holds it (CPython
    3.10 holds an argument passed inline until the call returns).  Beyond
    one block, each block's pass results are let go before the next block
    is built.
    """
    if callable(source):
        source = source()
    grid = source if into is None or into.ndim == 1 else into
    shape = grid.shape[:-1]
    points = math.prod(shape)
    lines = hasattr(source, "block")
    if points <= BLOCK_POINTS:
        if lines:
            source = source.grid()
        for step in passes[:-1]:
            source = step(source)
        return passes[-1](source) if into is None else passes[-1](source, into)
    rows = _rows(source) if not lines and source.ndim > 1 else None
    target = None
    if grid is into:
        target = _rows(into)
        if not np.may_share_memory(target, into):
            raise ValueError("blockwise writes only into a component-major grid")
    out = None
    for block in point_blocks(shape):
        if lines:
            x = components_last(source.block(block))
        else:
            x = source if rows is None else components_last(rows[:, block])
        for step in passes[:-1]:
            x = step(x)
        if target is not None:
            target[:, block] = components_first(passes[-1](x, components_last(target[:, block])))
        else:
            x = passes[-1](x) if into is None else passes[-1](x, into)
            if out is None:
                out = np.empty(x.shape[1:] + (points,))
            out[..., block] = components_first(x)
        del x
    if target is not None:
        return into
    out = out.reshape(out.shape[:-1] + shape)
    return components_last(out) if out.ndim > len(shape) else out


def quat_mul(a, b):
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # np.broadcast_shapes costs microseconds per call; the usual pairs skip it
    if a.shape == b.shape or b.ndim == 1:
        shape = a.shape[:-1]
    elif a.ndim == 1:
        shape = b.shape[:-1]
    else:
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty((4,) + shape)
    w, x, y, z = out[0, ...], out[1, ...], out[2, ...], out[3, ...]
    # each component is filled in place, its terms summed left to right
    np.multiply(a0, b0, out=w)
    w -= a1 * b1
    w -= a2 * b2
    w -= a3 * b3
    np.multiply(a0, b1, out=x)
    x += a1 * b0
    x += a2 * b3
    x -= a3 * b2
    np.multiply(a0, b2, out=y)
    y -= a1 * b3
    y += a2 * b0
    y += a3 * b1
    np.multiply(a0, b3, out=z)
    z += a1 * b2
    z -= a2 * b1
    z += a3 * b0
    return components_last(out)


def quat_conj(q):
    out = np.copy(np.asarray(q, dtype=float), order="K")
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_mean(q):
    """Mean of a quaternion grid, with the bits of np.mean over its (N, 4)
    rows in C order whatever the grid's memory order: numpy sums such rows
    one point after another, so each point_blocks block is copied in C
    order after the running total and summed, and no C-ordered copy of
    the grid is made."""
    rows = components_first(q).reshape(4, -1)
    total = np.zeros(4)
    for block in point_blocks(q.shape[:-1]):
        points = rows[:, block]
        summands = np.empty((points.shape[1] + 1, 4))
        summands[0] = total
        summands[1:] = points.T
        total = np.add.reduce(summands, axis=0)
    return total / rows.shape[1]


def quat_angle(q):
    """Rotation angle of q on the scale where the antipode -Id is at 1."""
    q = np.asarray(q, dtype=float)
    s = np.linalg.norm(q[..., 1:], axis=-1)
    return np.arctan2(s, q[..., 0]) / np.pi


def quat_rotation_matrix(q):
    """3x3 matrix of Ad(q) on algebra coordinates (single quaternion)."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (w * y + x * z)],
            [2 * (w * z + x * y), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (w * x + y * z), 1 - 2 * (x * x + y * y)],
        ]
    )


def alg_exp_quat(coords):
    """Group exponential of algebra coordinates; exp((1,0,0)) = -Id.

    Computed in place in the output and one scratch grid, with the bits of
    cos(pi n) and v * pi * np.sinc(n), n = np.linalg.norm(v, axis=-1)."""
    v = np.asarray(coords, dtype=float)
    x0, x1, x2 = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty((4,) + v.shape[:-1])
    n, spare = out[0, ...], out[1, ...]
    # |v|^2 summed in the order np.linalg.norm sums the last axis
    np.multiply(x0, x0, out=n)
    n += np.multiply(x1, x1, out=spare)
    n += np.multiply(x2, x2, out=spare)
    np.sqrt(n, out=n)
    # pi sin(y) / y at y = pi n; where n = 0, y is set tiny, so the ratio is
    # exactly 1, as in np.sinc
    y = np.multiply(n, np.pi, out=np.empty(n.shape))
    y[y == 0.0] = 1e-20
    factor = np.divide(np.sin(y, out=spare), y, out=y)
    factor *= np.pi
    n *= np.pi
    np.cos(n, out=n)
    np.multiply(components_first(v), factor, out=out[1:])
    return components_last(out)


def _log_factor(q, cut_margin):
    """The scale that maps the vector part of q to its logarithm."""
    s = np.linalg.norm(q[..., 1:], axis=-1)
    phi = np.arctan2(s, q[..., 0])
    if np.any(phi > np.pi * (1.0 - cut_margin)):
        raise CutLocusError("logarithm within %g of -Id" % cut_margin)
    return np.where(s > 1e-300, phi / (np.pi * np.maximum(s, 1e-300)), 1.0 / np.pi)


def alg_log_quat(q, cut_margin=1e-9):
    """Principal logarithm in algebra coordinates; |result| < 1.

    Raises CutLocusError if any input is within cut_margin (on the distance
    scale where d(Id, -Id) = 1) of -Id, where the log branches.
    """
    q = np.asarray(q, dtype=float)
    factor = _log_factor(q, cut_margin)
    out = np.empty((3,) + factor.shape)
    np.multiply(components_first(q[..., 1:]), factor, out=out)
    return components_last(out)


def torus_quat(theta):
    """Quaternion of exp(theta*e); vectorised over theta, component-major."""
    t = np.asarray(theta, dtype=float)
    out = np.zeros((4,) + t.shape)
    np.cos(np.pi * t, out=out[0, ...])
    np.sin(np.pi * t, out=out[1, ...])
    return components_last(out)


# ---------------------------------------------------------------------------
# single group elements


class GroupElement:
    """A single SU(2) element; renormalised to |q| = 1 on construction."""

    __slots__ = ("q",)

    def __init__(self, q):
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise ValueError("quaternion must have shape (4,)")
        norm = float(np.linalg.norm(q))
        if not abs(norm - 1.0) <= 1e-6:  # a NaN norm fails too
            raise ValueError("quaternion norm %.3g too far from 1" % norm)
        self.q = q / norm

    @classmethod
    def identity(cls):
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    def __mul__(self, other):
        return GroupElement(quat_mul(self.q, other.q))

    def inverse(self):
        return GroupElement(quat_conj(self.q))

    def __repr__(self):
        return "GroupElement(%r)" % (self.q.tolist(),)


def weyl_element() -> GroupElement:
    """Conjugation by this element reverses the torus: exp(te) -> exp(-te)."""
    return GroupElement(np.array([0.0, 0.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# operations


def group_distance(a: GroupElement, b: GroupElement) -> float:
    """Bi-invariant distance, equal to |log(a b^-1)| where defined.

    Extends continuously through the cut locus: d(Id, -Id) = 1.
    """
    return float(quat_angle(quat_mul(a.q, quat_conj(b.q))))


def diagonalize(a: GroupElement, near: float = 0.0):
    """Conjugate a onto the fixed torus: returns (p, theta) with

        p * a * p^-1 = exp(theta*e).

    p turns the axis of a by the smallest rotation onto the torus
    direction, so p never turns about e.  The target is -e when near mod 2
    lies in (1, 2), else +e, and theta is the representative mod 2 nearest
    near (of two equally near ones, the one on +e): a torus coordinate
    carried from step to step keeps its branch, with no Weyl flip.  At the
    default near = 0 the target is +e and theta lies in [0, 1].  theta = 0
    or 1 mod 2 corresponds to the center (a = +-Id, p = Id).

    The identity holds only up to a small part of p * a * p^-1 left off the
    torus.  An axis within about 1.4e-7 rad of the target is taken as on it
    (p = Id, or the Weyl element for the opposite axis), which leaves up to
    1.4e-7 off the torus; just past that, arccos is ill-conditioned and
    leaves up to about 1e-10.  The scheme's renormalisation takes the
    logarithm relative to exp(theta*e), so it absorbs that remainder into
    the perturbation F.
    """
    w = float(a.q[0])
    vec = a.q[1:]
    s = float(np.linalg.norm(vec))
    sign = -1.0 if near % 2.0 > 1.0 else 1.0
    if s < 1e-15:  # the center lies on both branches; it keeps theta's sign
        p, theta, sign = GroupElement.identity(), (0.0 if w > 0 else 1.0), 1.0
    else:
        theta = float(np.arctan2(s, w) / np.pi)
        u = vec / s
        target = np.array([sign, 0.0, 0.0])
        c = float(np.clip(u @ target, -1.0, 1.0))
        if c > 1.0 - 1e-14:
            p = GroupElement.identity()
        elif c < -1.0 + 1e-14:
            p = weyl_element()
        else:
            axis = np.cross(u, target)
            axis /= np.linalg.norm(axis)
            half = 0.5 * np.arccos(c)
            p = GroupElement(np.concatenate([[np.cos(half)], np.sin(half) * axis]))
    return p, sign * theta + 2.0 * np.rint((near - sign * theta) / 2.0)
