"""Closed-form sifting, error, leakage, and secure-rate expressions.

All probabilities are per detection opportunity (one gate opening, i.e. one
frame).  ``mu`` is therefore the total signal mean photon number arriving
during one gate and ``eta`` the composite of channel transmittance and
detector efficiency.  Helpers at the bottom document those conversions so a
different convention can be swapped in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, expm1, floor, log, log1p, log2, sqrt

import numpy as np

from .timebase import ConfigError

# Error-correction leak per sifted bit, as a multiple of h(qber).
RECONCILIATION_INEFFICIENCY = 1.15


def p_sift_simple(mu: float, eta: float, p_dark: float) -> float:
    """Probability that a gate produces a click, ignoring dead time.

    >>> round(p_sift_simple(0.5, 0.2, 8e-7), 6)
    0.095163
    """
    _check_prob("p_dark", p_dark)
    if mu < 0 or eta < 0:
        raise ConfigError("mu and eta must be >= 0")
    return 1.0 - exp(-mu * eta) * (1.0 - p_dark)


def p_sift_holdoff(mu: float, eta: float, p_dark: float, opportunity_rate_hz: float, hold_off_s: float) -> float:
    """Sifting probability with non-paralyzable hold-off dead time.

    >>> round(p_sift_holdoff(0.5, 0.2, 8e-7, 31.25e6, 10e-6), 6)
    0.003096
    """
    if opportunity_rate_hz < 0 or hold_off_s < 0:
        raise ConfigError("rate and hold-off must be >= 0")
    q = p_sift_simple(mu, eta, p_dark)
    return q / (1.0 + opportunity_rate_hz * q * hold_off_s)


def p_err(mu: float, eta: float, p_dark: float, p_sift: float) -> float:
    """Fraction of sifted bits flipped by dark counts.

    ``p_sift`` is the denominator convention the caller wants errors
    referred to (normally the no-dead-time value, since hold-off thins
    errors and correct clicks alike).

    >>> round(p_err(0.5, 0.2, 8e-7, p_sift_simple(0.5, 0.2, 8e-7)), 10)
    7.6066e-06
    """
    _check_prob("p_dark", p_dark)
    if p_sift <= 0:
        raise ConfigError("p_sift must be positive")
    return exp(-mu * eta) * (1.0 - p_dark) * p_dark / p_sift


def p_learn(p_b: float, p_sift: float) -> float:
    """Probability per opportunity that the eavesdropper learns a key bit.

    >>> round(p_learn(0.08878, 0.003096), 7)
    0.0002749
    """
    _check_prob("p_b", p_b)
    _check_prob("p_sift", p_sift)
    return p_b * p_sift


def binary_entropy(e: float) -> float:
    """Shannon entropy of a binary variable.

    >>> binary_entropy(0.5)
    1.0
    >>> binary_entropy(0.0)
    0.0
    """
    if not 0.0 <= e <= 1.0:
        raise ConfigError("probability must lie in [0, 1]")
    if e in (0.0, 1.0):
        return 0.0
    return -e * log2(e) - (1.0 - e) * log2(1.0 - e)


def p_sec(p_sift: float, p_b: float, qber: float) -> tuple[float, bool]:
    """Asymptotic secure fraction, clamped at zero.

    Error correction leaks ``RECONCILIATION_INEFFICIENCY`` times the Shannon
    limit h(qber).  Returns (rate, insecure) where ``insecure`` marks a
    negative raw value.

    >>> rate, insecure = p_sec(0.00307213, 0.0888, 9.60523e-06)
    >>> round(rate, 8), insecure
    (0.00279871, False)
    """
    _check_prob("p_sift", p_sift)
    _check_prob("p_b", p_b)
    raw = p_sift * (1.0 - p_b - RECONCILIATION_INEFFICIENCY * binary_entropy(qber))
    if raw < 0.0:
        return 0.0, True
    return raw, False


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")


# ---------------------------------------------------------------------------
# Convention helpers shared by the simulator and this module.

def dark_probability_per_gate(dark_count_rate_cps: float, gate_width_ps: int) -> float:
    """P_dark convention: dark rate integrated over one open gate."""
    return dark_count_rate_cps * gate_width_ps / 1e12


def composite_efficiency(transmittance: float, detector_efficiency: float) -> float:
    """eta convention: channel transmittance times detector efficiency."""
    return transmittance * detector_efficiency


def gate_mean_photon(mean_photon_per_pulse: float, bits_per_frame: int) -> float:
    """mu convention: total signal photons per gate (one pulse per bit slot)."""
    return mean_photon_per_pulse * bits_per_frame


# ---------------------------------------------------------------------------
# Monte Carlo vs analytic comparison.

@dataclass(frozen=True)
class RateInputs:
    """Everything the closed forms need, in per-gate convention."""

    mu: float
    eta: float
    p_dark: float
    opportunity_rate_hz: float
    hold_off_s: float
    p_b: float
    qber: float | None = None


@dataclass(frozen=True)
class McCounts:
    """Tallies from a simulation run.

    ``n_frames_covered`` is the frame share whose sifted detections landed in
    a completed disclosure block; leftover detections never reach the
    attacker's scoring, so the learning comparison uses this denominator.
    """

    n_frames: int
    n_sift: int
    n_err: int
    n_retained: int = 0
    n_eve_backflash: int = 0
    n_eve_backflash_blocks: int = 0
    n_eve_correct: int = 0
    n_frames_covered: int | None = None


@dataclass(frozen=True)
class RateRow:
    name: str
    analytic: float
    empirical: float | None
    lo: float | None
    hi: float | None
    ok: bool


@dataclass
class RateReport:
    rows: list[RateRow]
    insecure: bool


def count_interval(n: int, p: float) -> tuple[int, int]:
    """Two-sided 99.7% (3-sigma-equivalent) binomial count interval.

    Exact quantiles keep the check honest when the expected count is tiny,
    where a Gaussian 3-sigma band would be meaningless.
    """
    if n <= 0 or p <= 0:
        return 0, 0
    return _binom_quantile(0.00135, n, p), _binom_quantile(0.99865, n, p)


def _binom_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(X <= k) >= q for X ~ Binomial(n, p), 0 < q < 1.

    The pmf is built by its ratio recurrence over mean +/- 14 sigma (plus a
    few counts for tiny means), which holds all but about 1e-40 of the
    mass, and normalised over that window; lgamma at n ~ 1e7 would carry a
    1e-7 relative error into the cdf.

    >>> _binom_quantile(0.5, 10, 0.5), _binom_quantile(0.99865, 1, 1e-7), _binom_quantile(0.1, 7, 1.0)
    (5, 0, 7)
    """
    if p >= 1.0:
        return n
    mean = n * p
    sd = sqrt(mean * (1.0 - p))
    lo = max(0, floor(mean - 14.0 * sd))
    hi = min(n, ceil(mean + 14.0 * sd) + 20)
    k = np.arange(lo + 1, hi + 1, dtype=float)
    # log pmf(k) - log pmf(k - 1)
    step = np.log((n - k + 1.0) / k) + (log(p) - log1p(-p))
    log_pmf = np.concatenate([[0.0], np.cumsum(step)])
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    return lo + int(np.searchsorted(cdf, q * cdf[-1]))


def compare(mc: McCounts, inputs: RateInputs) -> RateReport:
    """Check simulated tallies against the closed forms at 3-sigma coverage."""
    q1 = p_sift_simple(inputs.mu, inputs.eta, inputs.p_dark)
    sift = p_sift_holdoff(inputs.mu, inputs.eta, inputs.p_dark,
                          inputs.opportunity_rate_hz, inputs.hold_off_s)
    err = p_err(inputs.mu, inputs.eta, inputs.p_dark, q1)
    qber = inputs.qber
    if qber is None:
        qber = mc.n_err / mc.n_sift if mc.n_sift else err
    learn = p_learn(inputs.p_b, sift)

    rows = []

    def add_count_row(name: str, analytic_p: float, observed: int, n: int) -> None:
        if n > 0:
            lo, hi = count_interval(n, analytic_p)
            ok = lo <= observed <= hi
            rows.append(RateRow(name, analytic_p, observed / n, lo / n, hi / n, ok))
        else:
            rows.append(RateRow(name, analytic_p, None, None, None, True))

    # The learning form counts leak opportunities (a backflash detection on a
    # sifted click), not the attacker's inference successes; the latter carry
    # window-coverage and boundary effects that the closed form ignores.
    covered = mc.n_frames if mc.n_frames_covered is None else mc.n_frames_covered
    add_count_row("p_sift", sift, mc.n_sift, mc.n_frames)
    add_count_row("p_err", err, mc.n_err, mc.n_sift)
    add_count_row("p_b", inputs.p_b, mc.n_eve_backflash, mc.n_retained)
    add_count_row("p_learn", learn, mc.n_eve_backflash_blocks, covered)

    sec, insecure = p_sec(sift, inputs.p_b, qber)
    rows.append(RateRow("p_sec", sec, None, None, None, True))

    return RateReport(rows=rows, insecure=insecure)


# ---------------------------------------------------------------------------
# Dark-exposure start-stop histogram (the C8 study).

def stop_delay_bins(scale_ps: float, cap_ps: int, edges_ps: np.ndarray) -> np.ndarray:
    """Binned stop-delay law: the probability that a backflash stop lies in
    each bin [edges_ps[i], edges_ps[i + 1]) of integer picoseconds after its
    avalanche (``Histogram.edges_ps`` gives a histogram's edges).

    The delay is ``rint(x)`` ps with x exponential of scale ``scale_ps``
    truncated to [0, cap_ps], so an integer delay d has x in [d - 1/2,
    d + 1/2) and a bin [a, b) has the mass F(b - 1/2) - F(a - 1/2) of the
    truncated CDF F(x) = (1 - exp(-x/scale)) / (1 - exp(-cap/scale)).  A cap
    of 0 puts every delay at 0.

    >>> stop_delay_bins(600.0, 2000, np.array([0, 1000, 2000, 3000])).round(6).tolist()
    [0.840968, 0.159002, 3.1e-05]
    """
    if cap_ps < 0 or (cap_ps > 0 and scale_ps <= 0):
        raise ConfigError("delay bins need a cap >= 0 and a positive scale")
    # An integer delay below a lies at x < a - 1/2.
    edges = np.asarray(edges_ps, dtype=float) - 0.5
    if not cap_ps:
        return np.diff((edges >= 0).astype(float))
    x = np.clip(edges, 0.0, cap_ps)
    return np.diff(np.expm1(-x / scale_ps) / expm1(-cap_ps / scale_ps))


def stops_per_start(
    backflash_probability: float,
    snspd_efficiency: float,
    snspd_dark_cps: float,
    delay_scale_ps: float,
    delay_cap_ps: int,
    edges_ps: np.ndarray,
) -> np.ndarray:
    """Expected stops per start in each bin [edges_ps[i], edges_ps[i + 1])
    of a dark-exposure start-stop histogram over (lo, hi) = (edges_ps[0],
    edges_ps[-1]); the expected stop count of n starts is n times its sum.

    Each start emits a backflash photon with ``backflash_probability``,
    which the SNSPD detects with ``snspd_efficiency`` and which lands in
    the bins by :func:`stop_delay_bins`.  SNSPD darks are a Poisson process
    of ``snspd_dark_cps`` in each start's window [start + lo, start + hi),
    so they spread uniformly over the range.  This is the histogram's law
    when every stop pairs with its own start alone.  A width with n starts
    then counts about Binomial(n, sum) stops: a start's window holds a dark
    with probability about snspd_dark_cps * (hi - lo) / 1e12 (1e-7 for the
    study's 16.4/s over 6 ns), and both a dark and a backflash stop far less
    often.

    >>> law = stops_per_start(0.12, 0.74, 16.4, 600.0, 2000, np.array([0, 1000, 2000, 3000]))
    >>> round(float(law.sum()), 8)
    0.08880005
    """
    _check_prob("backflash_probability", backflash_probability)
    _check_prob("snspd_efficiency", snspd_efficiency)
    if snspd_dark_cps < 0:
        raise ConfigError("dark count rate must be >= 0")
    law = backflash_probability * snspd_efficiency * stop_delay_bins(delay_scale_ps, delay_cap_ps, edges_ps)
    return law + snspd_dark_cps * np.diff(edges_ps) / 1e12
