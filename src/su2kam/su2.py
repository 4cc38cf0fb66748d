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

Vectorised helpers (quat_*, alg_*) act on arrays with a trailing axis of
length 4 (quaternions) or 3 (algebra coordinates).  GroupElement holds one
validated element, as read from configs and stored in conjugation factors.
"""

from __future__ import annotations

import numpy as np


class CutLocusError(ValueError):
    """Principal logarithm requested within the cut-locus margin of -Id."""


# ---------------------------------------------------------------------------
# raw quaternion arrays


def quat_mul(a, b):
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3]
    x = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0] + a[..., 2] * b[..., 3] - a[..., 3] * b[..., 2]
    y = a[..., 0] * b[..., 2] - a[..., 1] * b[..., 3] + a[..., 2] * b[..., 0] + a[..., 3] * b[..., 1]
    z = a[..., 0] * b[..., 3] + a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1] + a[..., 3] * b[..., 0]
    return np.stack([w, x, y, z], axis=-1)


def quat_conj(q):
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


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
    """Group exponential of algebra coordinates; exp((1,0,0)) = -Id."""
    v = np.asarray(coords, dtype=float)
    n = np.linalg.norm(v, axis=-1)
    w = np.cos(np.pi * n)
    # sin(pi n)/n, continuous at n = 0
    vec = v * (np.pi * np.sinc(n))[..., None]
    return np.concatenate([w[..., None], vec], axis=-1)


def alg_log_quat(q, cut_margin=1e-9):
    """Principal logarithm in algebra coordinates; |result| < 1.

    Raises CutLocusError if any input is within cut_margin (on the distance
    scale where d(Id, -Id) = 1) of -Id, where the log branches.
    """
    q = np.asarray(q, dtype=float)
    vec = q[..., 1:]
    s = np.linalg.norm(vec, axis=-1)
    phi = np.arctan2(s, q[..., 0])
    if np.any(phi > np.pi * (1.0 - cut_margin)):
        raise CutLocusError("logarithm within %g of -Id" % cut_margin)
    factor = np.where(s > 1e-300, phi / (np.pi * np.maximum(s, 1e-300)), 1.0 / np.pi)
    return vec * factor[..., None]


def torus_quat(theta):
    """Quaternion of exp(theta*e); vectorised over theta."""
    t = np.asarray(theta, dtype=float)
    zeros = np.zeros_like(t)
    return np.stack([np.cos(np.pi * t), np.sin(np.pi * t), zeros, zeros], axis=-1)


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
        if abs(norm - 1.0) > 1e-6:
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


def diagonalize(a: GroupElement):
    """Conjugate a onto the fixed torus: returns (p, theta) with

        p * a * p^-1 = exp(theta*e),   theta in [0, 1].

    theta = 0 or 1 corresponds to the center (a = +-Id, p = Id).  The axis
    sign is canonicalised (sin(pi*theta) >= 0); the flip, when needed, is
    realised inside p.

    The identity holds only up to a small part of p * a * p^-1 left off the
    torus.  An axis within about 1.4e-7 rad of the torus direction is taken
    as on it (p = Id), which leaves up to 1.4e-7 off the torus; just past
    that, arccos is ill-conditioned and leaves up to about 1e-10.  The
    scheme's renormalisation takes the logarithm relative to exp(theta*e),
    so it absorbs that remainder into the perturbation F.
    """
    w = float(a.q[0])
    vec = a.q[1:]
    s = float(np.linalg.norm(vec))
    if s < 1e-15:
        return GroupElement.identity(), (0.0 if w > 0 else 1.0)
    theta = float(np.arctan2(s, w) / np.pi)
    u = vec / s
    ex = np.array([1.0, 0.0, 0.0])
    c = float(np.clip(u @ ex, -1.0, 1.0))
    if c > 1.0 - 1e-14:
        p = GroupElement.identity()
    elif c < -1.0 + 1e-14:
        p = weyl_element()
    else:
        axis = np.cross(u, ex)
        axis /= np.linalg.norm(axis)
        half = 0.5 * np.arccos(c)
        p = GroupElement(np.concatenate([[np.cos(half)], np.sin(half) * axis]))
    return p, theta
