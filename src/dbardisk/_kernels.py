"""Hot grid kernels in vectorized numpy.

Only the kernels below sit in inner loops: per-node energy densities, the
polar chain rule, and the all-pairs Gram reduction over variation bases
that are not separable (separable bases take the factorised route in
``secondvar.assemble_gram``). All reductions run in a fixed order so
results are reproducible run to run.
"""

import numpy as np


def _accumulate(terms):
    """Sum of a stream of new (nr, nt) arrays, added in order into the first.

    That is the order of a numpy sum over a last axis shorter than 8, so for
    n <= 3 the densities match such a sum bit for bit.
    """
    terms = iter(terms)
    out = next(terms)
    for t in terms:
        out += t
    return out


# J (u, v) = (-v, u) on components ordered (x_1..x_n, y_1..y_n). The
# generators below yield one (nr, nt) component at a time: a strided view
# per component is several times faster than slicing the :n / n: halves.

def _a_plus_jb(a, b, n):
    """Components of a + J b: a_x - b_y, then a_y + b_x."""
    for i in range(n):
        yield a[..., i] - b[..., n + i]
    for i in range(n):
        yield a[..., n + i] + b[..., i]


def _ja_times_b(a, b, n):
    """Componentwise products of J a and b: -a_y b_x, then a_x b_y."""
    for i in range(n):
        yield -a[..., n + i] * b[..., i]
    for i in range(n):
        yield a[..., i] * b[..., n + i]


def dbar_density(a, b):
    """|a + J b|^2 / 4 per node; a and b as in energy_densities."""
    return 0.25 * _accumulate(p * p for p in _a_plus_jb(a, b, a.shape[-1] // 2))


def energy_densities(a, b):
    """Pointwise energy densities from derivative fields in any orthonormal frame.

    a, b have shape (nr, nt, 2n) with components ordered (x_1..x_n,
    y_1..y_n): the derivatives of f along e_1 and e_2 of a positively
    oriented orthonormal frame, such as (f_x, f_y) or (f_r, f_theta / r).
    The densities do not depend on the frame, because
    f_x +- J f_y = e^{J theta} (f_r +- J f_theta / r). Returns
    (e_del, e_dbar, kahler, e_full) arrays of shape (nr, nt):

        e_dbar  = |a + J b|^2 / 4
        e_del   = |a - J b|^2 / 4
        kahler  = <J a, b>
        e_full  = (|a|^2 + |b|^2) / 2   (computed independently)
    """
    n = a.shape[-1] // 2
    e_del = dbar_density(a, -b)      # a - J b = a + J (-b)
    kahler = _accumulate(_ja_times_b(a, b, n))
    e_full = 0.5 * (_accumulate(a[..., i] * a[..., i] for i in range(2 * n))
                    + _accumulate(b[..., i] * b[..., i] for i in range(2 * n)))
    return e_del, dbar_density(a, b), kahler, e_full


def polar_to_cartesian(fr, ft, inv_r, cos_t, sin_t):
    """Chain rule f_x = cos(t) f_r - sin(t)/r f_t, f_y = sin(t) f_r + cos(t)/r f_t.

    fr, ft: (nr, nt, C); inv_r: (nr,); cos_t, sin_t: (nt,).
    """
    c = cos_t[None, :, None]
    s = sin_t[None, :, None]
    ft_over_r = ft * inv_r[:, None, None]
    fx = c * fr - s * ft_over_r
    fy = s * fr + c * ft_over_r
    return fx, fy


def gram_interior(grads, w2):
    """All-pairs weighted interior products of stacked gradients.

    grads: (m, k, nr, nt, C), the k components of the gradients of m fields
    in any orthonormal frame; it is scaled by sqrt(w2) in place. w2:
    (nr, nt) quadrature weights. Returns the (m, m) matrix with entries
    sum_grid w2 * <grad_a, grad_b>.
    """
    m = grads.shape[0]
    grads *= np.sqrt(w2)[:, :, None]
    x = grads.reshape(m, -1)
    return x @ x.T
