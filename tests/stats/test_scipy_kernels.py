"""The ``scipy.special`` kernels stand in for ``scipy.stats`` exactly.

``normal_quantile``, ``mann_kendall`` and ``mean_confidence_interval``
call the kernels that ``scipy.stats.norm`` and ``scipy.stats.t`` call
themselves, so ``import repro`` need not load ``scipy.stats``.  These
pins compare with ``==``: a scipy release that breaks an identity fails
here instead of silently moving a CLTA threshold, a trend p-value or a
confidence interval.
"""

import numpy as np
from scipy.special import ndtr, ndtri, stdtrit
from scipy.stats import norm, t

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)


def test_ndtri_is_norm_ppf():
    q = np.linspace(0.0, 1.0, 20001)
    assert np.array_equal(ndtri(q), norm.ppf(q))


def test_ndtr_is_norm_cdf():
    z = np.linspace(-10.0, 10.0, 20001)
    assert np.array_equal(ndtr(z), norm.cdf(z))


def test_stdtrit_is_t_ppf():
    df = np.arange(1, 400)[:, None]
    p = 0.5 + np.asarray(CONFIDENCES) / 2.0
    assert np.array_equal(stdtrit(df, p), t.ppf(p, df))
