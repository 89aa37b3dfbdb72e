"""Reference predictors for the core surrogates, written the textbook way.

:meth:`GaussianProcess.predict` reuses what its fit state keeps — the
kernel's train side and a Fortran-ordered factor under raw ``trtrs``.
These are the same posteriors with nothing reused: the cross-covariance
built from both arguments (``kernel(Xq, X_train)``),
``scipy.linalg.solve_triangular`` for the variance solve, ``kernel.diag``
for the prior variance.  Kept as the test oracle ``predict`` must equal
bit for bit on the same batch.

:func:`lcm_nll` is the likelihood the LCM's fused objective-and-gradient
must agree with: ``-log N(y | 0, K)`` over the model's own
``_joint_cov``, one plain Cholesky, nothing shared with the fit path.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla


def gp_predict(gp, Xq):
    """Dense GP posterior ``(mean, std)`` at ``Xq``, original target scale."""
    st = gp._state
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    Ks = gp.kernel(Xq, st.X)
    mean = Ks @ st.alpha * st.y_std + st.y_mean
    v = sla.solve_triangular(st.L, Ks.T, lower=True, check_finite=False)
    var = gp.kernel.diag(Xq) + gp.noise_variance - np.sum(v * v, axis=0)
    return mean, np.sqrt(np.maximum(var, 1e-12)) * st.y_std


def sparse_predict(gp, Xq):
    """SGPR (projected-process) posterior ``(mean, std)`` at ``Xq``."""
    st = gp._state
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    Ksm = gp.kernel(Xq, st.Z)
    t1 = sla.solve_triangular(st.Lm, Ksm.T, lower=True, check_finite=False)
    t2 = sla.solve_triangular(st.LB, t1, lower=True, check_finite=False)
    mean = t2.T @ st.c * st.y_std + st.y_mean
    var = gp.kernel.diag(Xq) + st.sigma2 - np.sum(t1 * t1, axis=0) + np.sum(t2 * t2, axis=0)
    return mean, np.sqrt(np.maximum(var, 1e-12)) * st.y_std


def lcm_nll(lcm, theta, X, t, y):
    """``-log N(y | 0, K(theta))`` of the LCM's joint covariance."""
    L = sla.cholesky(lcm._joint_cov(X, t, theta), lower=True)
    alpha = sla.cho_solve((L, True), y)
    return float(
        0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * y.size * np.log(2.0 * np.pi)
    )
