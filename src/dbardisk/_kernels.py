"""Hot grid kernels in vectorized numpy.

Only the kernels below sit in inner loops: per-node energy densities, the
polar chain rule, and the all-pairs Gram reduction over variation bases
that are not separable (separable bases take the factorised route in
``secondvar.assemble_gram``). All reductions run in a fixed order so
results are reproducible run to run.
"""

import numpy as np


def energy_densities(fx, fy):
    """Pointwise energy densities from cartesian derivative fields.

    fx, fy have shape (nr, nt, 2n) with components ordered (x_1..x_n,
    y_1..y_n). Returns (e_del, e_dbar, kahler, e_full) arrays of shape
    (nr, nt):

        e_dbar  = |fx + J fy|^2 / 4
        e_del   = |fx - J fy|^2 / 4
        kahler  = <J fx, fy>
        e_full  = (|fx|^2 + |fy|^2) / 2   (computed independently)
    """
    n = fx.shape[-1] // 2
    jfy = np.empty_like(fy)
    jfy[..., :n] = -fy[..., n:]
    jfy[..., n:] = fy[..., :n]
    jfx = np.empty_like(fx)
    jfx[..., :n] = -fx[..., n:]
    jfx[..., n:] = fx[..., :n]
    e_dbar = 0.25 * np.sum((fx + jfy) ** 2, axis=-1)
    e_del = 0.25 * np.sum((fx - jfy) ** 2, axis=-1)
    kahler = np.sum(jfx * fy, axis=-1)
    e_full = 0.5 * (np.sum(fx * fx, axis=-1) + np.sum(fy * fy, axis=-1))
    return e_del, e_dbar, kahler, e_full


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
