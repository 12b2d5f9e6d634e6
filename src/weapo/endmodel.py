"""Feature-space end model trained on label-model scores.

Kernel ridge regression with an RBF kernel, solved exactly by a blocked
Cholesky factorization in float32 and iterative refinement to float64
accuracy, or in float64 where that falls short. Training targets come
from the label model: covered records keep their scores, uncovered
records take one constant (default 0, i.e. treated as negative). The end
model generalizes past coverage because it scores features, not votes.

Memory: the fit holds only the lower triangle of the symmetric kernel
system, as ``BLOCK_ROWS``-row panels of at most N * (N + BLOCK_ROWS) / 2
entries, factored in place: each diagonal block holds the inverse of its
diagonal factor. The panels are float32, or float64 when the float32
attempt falls short. Their build and each refinement pass read the system
from one source of float64 row chunks, each formed in one buffer that the
pass allocates once. ``fit_bytes`` prices the float64 panels, the
factorization's temporaries and that buffer.
Before allocating the panels, ``fit_krr`` refuses a fit whose float64 attempt
needs more than ``MEMORY_BUDGET_FRACTION`` of the memory the operating system
reports available. Prediction scores the test rows in blocks of ``BLOCK_ROWS``,
each in one reused buffer, so it never holds an N_test x N_train kernel.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# A dense fit may use at most this fraction of the available memory; the
# rest is left to the interpreter, the datasets and other processes.
MEMORY_BUDGET_FRACTION = 0.8
# Rows (or columns) per block in the kernel build, the factorization, the
# triangular solves and predict_krr. Each block temporary is at most
# BLOCK_ROWS x N float64.
BLOCK_ROWS = 256
# Doubles per row chunk of the kernel's elementwise passes (256 KiB), so
# that each chunk stays in cache from one pass to the next.
KERNEL_CHUNK_DOUBLES = 2**15
# Rows at which _lower_inverse stops halving and inverts directly.
INVERSE_BASE_ROWS = 32
# Rows per float64 chunk of the system, built for the panels and for each
# residual: few enough chunks that the per-call cost of _kernel stays small.
_CHUNK_ROWS = 32


def make_targets(
    scores: np.ndarray,
    coverage: np.ndarray,
    uncovered_target: float = 0.0,
) -> np.ndarray:
    """Regression targets: label-model scores, with ``uncovered_target``
    where no labeling function fired."""
    scores = np.asarray(scores, dtype=np.float64)
    coverage = np.asarray(coverage)
    if scores.shape != coverage.shape or scores.ndim != 1:
        raise ValueError("scores and coverage must be aligned 1-D arrays")
    check_krr_settings(uncovered_target=uncovered_target)
    targets = scores.copy()
    targets[~coverage.astype(bool)] = uncovered_target
    return targets


@dataclass(frozen=True, eq=False)
class KRRModel:
    """Fitted kernel ridge regressor: support points plus dual coefficients."""

    support: np.ndarray
    coefficients: np.ndarray
    gamma: float
    alpha: float


def _kernel_doubles(rows: int, cols: int) -> int:
    """Doubles of a ``_kernel`` buffer for up to ``rows`` x ``cols`` entries and their scratch."""
    return rows * cols + min(rows * cols, max(KERNEL_CHUNK_DOUBLES, cols))


def _kernel(x: np.ndarray, y: np.ndarray, x_sq: np.ndarray, y_sq: np.ndarray,
            gamma: float, out: np.ndarray) -> np.ndarray:
    """exp(-gamma * squared distance) for every row pair of checked 2-D
    float64 features, from their rows' squared norms ``x_sq`` and ``y_sq``,
    as the head of the flat buffer ``out`` of ``_kernel_doubles`` entries,
    its tail scratch."""
    # ``x @ y.T`` is one call, into the kernel returned, so that numpy uses
    # the symmetric BLAS product when ``x is y``. The rest runs over row
    # chunks in cache, in the plain expression's order and rounding.
    step = max(1, KERNEL_CHUNK_DOUBLES // max(len(y), 1))
    scratch = (min(step, len(x)), len(y))
    kernel = np.matmul(x, y.T, out=out[: len(x) * len(y)].reshape(len(x), len(y)))
    buffer = out[kernel.size :][: scratch[0] * scratch[1]].reshape(scratch)
    for start in range(0, len(x), step):
        chunk = kernel[start : start + step]
        sq = np.add.outer(x_sq[start : start + step], y_sq, out=buffer[: len(chunk)])
        chunk *= 2.0
        np.subtract(sq, chunk, out=chunk)
        np.maximum(chunk, 0.0, out=chunk)
        # A product beyond the float range saturates to -inf, a kernel value of 0.
        with np.errstate(over="ignore"):
            np.multiply(chunk, -gamma, out=chunk)
        np.exp(chunk, out=chunk)
    return kernel


def _default_gamma(features: np.ndarray) -> float:
    """Median-free bandwidth heuristic of checked 2-D float64 features:
    1 / (F * var(features)), or 1 for constant features.

    The variance is taken of the features scaled by a power of two, which
    is exact, so that the squares it sums cannot overflow. Refuses a
    bandwidth that overflows."""
    _, exponent = np.frexp(np.abs(features).max())
    var = float(np.ldexp(np.ldexp(features, -exponent).var(), 2 * exponent))
    if var <= 0.0:
        return 1.0
    gamma = 1.0 / (features.shape[1] * var)
    if not np.isfinite(gamma):
        raise ValueError(
            "the default gamma, 1 / (F * var(features)), overflows because the "
            "feature variance is too small; give gamma"
        )
    return gamma


def _check_features(features: np.ndarray) -> None:
    """Refuse non-finite features and features whose squared distances
    could overflow float64.

    ``_kernel`` forms ``|x|^2 + |y|^2 - 2 x.y``; with every entry at
    most ``sqrt(max / (4 F))`` in magnitude, each term and the squared
    distance stay finite."""
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    limit = math.sqrt(np.finfo(np.float64).max / (4 * max(features.shape[1], 1)))
    largest = float(np.abs(features).max(initial=0.0))
    if largest > limit:
        raise ValueError(
            f"features must be at most {limit:.3g} in magnitude, or their squared "
            f"distances overflow float64; got {largest:.3g}"
        )


def _check_targets(targets: np.ndarray) -> None:
    """Refuse finite targets whose squared norm could overflow float64.

    The fit takes the norms of the N targets and of each residual; with
    every target at most ``sqrt(max / (4 N))`` in magnitude, the sum of
    their squares stays at most ``max / 4``."""
    limit = math.sqrt(np.finfo(np.float64).max / (4 * len(targets)))
    largest = max(float(targets.max()), -float(targets.min()))
    if largest > limit:
        raise ValueError(
            f"targets must be at most {limit:.3g} in magnitude at N = {len(targets)}, "
            f"or their squared norm overflows float64; got {largest:.3g}"
        )


def check_krr_settings(
    gamma: float | None = None,
    alpha: float | None = None,
    uncovered_target: float | None = None,
) -> None:
    """Raise ``ValueError`` for a ``gamma`` or ``alpha`` of ``fit_krr``, or
    an ``uncovered_target`` of ``make_targets``, out of range; a setting
    left as None is not checked."""
    if alpha is not None and not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and non-negative")
    if gamma is not None and not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be finite and positive")
    if uncovered_target is not None and not math.isfinite(uncovered_target):
        raise ValueError("uncovered_target must be finite")


def _available_memory_bytes() -> int | None:
    """``MemAvailable`` from ``/proc/meminfo`` in bytes, or None where
    that file cannot be read or lacks the field (non-Linux systems)."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``BLOCK_ROWS`` that cover ``range(n)``."""
    return [slice(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]


def fit_bytes(n: int) -> int:
    """Bytes an exact fit on ``n`` records holds at its peak, that of its
    float64 attempt: the lower triangle of the system as panels of b =
    min(n, ``BLOCK_ROWS``) rows, each with its diagonal block in full, at
    most n * (n + b) / 2 doubles, plus four b x b temporaries of the
    factorization, whose peak holds about three, and the chunk buffer of
    each pass over the system. The float32 attempt holds about half."""
    b = min(n, BLOCK_ROWS)
    return 8 * (n * (n + b) // 2 + 4 * b * b + _kernel_doubles(min(n, _CHUNK_ROWS), n))


def _system_chunks(features: np.ndarray, gamma: float,
                   alpha: float) -> Iterator[tuple[slice, np.ndarray]]:
    """The lower triangle of ``K + alpha * I``, diagonal included, in
    float64 chunks of ``_CHUNK_ROWS`` rows within each ``BLOCK_ROWS``
    block: yields each chunk's rows and the chunk over the columns before
    its end, each overwriting the last in one buffer. The features' squared
    norms are taken once per pass."""
    sq = (features * features).sum(axis=1)
    out = np.empty(_kernel_doubles(min(len(features), _CHUNK_ROWS), len(features)))
    for block in _blocks(len(features)):
        for start in range(block.start, block.stop, _CHUNK_ROWS):
            rows = slice(start, min(start + _CHUNK_ROWS, block.stop))
            chunk = _kernel(features[rows], features[: rows.stop], sq[rows], sq[: rows.stop],
                            gamma, out)
            chunk.flat[start :: rows.stop + 1] += alpha
            yield rows, chunk


def _ridge_panels(
    features: np.ndarray, gamma: float, alpha: float, dtype: type
) -> list[np.ndarray]:
    """The lower triangle of ``K + alpha * I`` in ``BLOCK_ROWS``-row panels
    of ``dtype``, zero above the diagonal: panel i holds block i's rows up
    to the end of block i. Each chunk of ``_system_chunks`` is rounded into
    its panel, so a float32 panel is exactly the float64 one rounded."""
    panels = [np.zeros((rows.stop - rows.start, rows.stop), dtype)
              for rows in _blocks(features.shape[0])]
    for rows, chunk in _system_chunks(features, gamma, alpha):
        chunk[:, rows.start :] = np.tril(chunk[:, rows.start :])
        block, offset = divmod(rows.start, BLOCK_ROWS)
        panels[block][offset : offset + len(chunk), : rows.stop] = chunk
    return panels


def _lower_inverse(factor: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by recursive halving, so that
    most of its work is matrix products, down to blocks of at most
    ``INVERSE_BASE_ROWS`` rows, inverted directly."""
    if len(factor) <= INVERSE_BASE_ROWS:
        return np.tril(np.linalg.inv(factor))
    half = len(factor) // 2
    top = _lower_inverse(factor[:half, :half])
    bottom = _lower_inverse(factor[half:, half:])
    inverse = np.zeros_like(factor)
    inverse[:half, :half] = top
    inverse[half:, half:] = bottom
    inverse[half:, :half] = -(bottom @ factor[half:, :half] @ top)
    return inverse


def _factor_panels(panels: list[np.ndarray]) -> None:
    """Overwrite the panels of a symmetric positive-definite system with
    its Cholesky factor L, one block row at a time, except that each
    diagonal block holds the inverse of its diagonal factor L_jj, zero
    above its diagonal.

    Block (i, j) of L, for j < i, is the system's block less the product
    of the block rows i and j of L left of column block j, times the
    transposed inverse of L_jj. L_jj is the Cholesky factor of the
    system's block less its row of L times its transpose; no later step
    reads it but through its inverse. Raises ``np.linalg.LinAlgError``
    when a diagonal block is not positive definite.
    """
    # The last panel spans every column.
    for rows, panel in zip(_blocks(panels[-1].shape[1]), panels):
        # One buffer for the row's update products (every block but the last is b wide).
        out = np.empty((len(panel), len(panels[0])), dtype=panel.dtype)
        for cols, done in zip(_blocks(rows.start), panels):
            block = panel[:, cols]
            block -= np.matmul(panel[:, : cols.start], done[:, : cols.start].T, out=out)
            block[...] = np.matmul(block, done[:, cols].T, out=out)
        diagonal, left = panel[:, rows], panel[:, : rows.start]
        diagonal -= np.matmul(left, left.T, out=out[:, : len(panel)])
        del out
        diagonal[...] = _lower_inverse(np.linalg.cholesky(diagonal))


def _substitute(panels: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs, with L in the panels as ``_factor_panels``
    leaves them, by forward and back substitution over the panels; each
    diagonal block holds the inverse of its diagonal factor."""
    x = rhs.copy()
    steps = list(zip(_blocks(len(rhs)), panels))
    for rows, panel in steps:
        x[rows] = panel[:, rows] @ (x[rows] - panel[:, : rows.start] @ x[: rows.start])
    for rows, panel in reversed(steps):
        x[rows] = panel[:, rows].T @ x[rows]
        x[: rows.start] -= panel[:, : rows.start].T @ x[rows]
    return x


def _system_product(
    features: np.ndarray, gamma: float, alpha: float, x: np.ndarray
) -> np.ndarray:
    """``(K + alpha * I) @ x`` in float64, from the chunks of
    ``_system_chunks``, each used as it stands and transposed."""
    product = np.zeros(len(x))
    for rows, chunk in _system_chunks(features, gamma, alpha):
        product[rows] += chunk @ x[: rows.stop]
        product[: rows.start] += chunk[:, : rows.start].T @ x[rows]
    return product


def _solve_factored(panels: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """``_substitute`` in the panels' precision, for a float64 ``rhs``
    scaled by the power of two that brings its largest entry into [0.5,
    1): exact in float64 but for subnormals, and neither large targets
    nor small residuals leave float32's range in float32 panels."""
    _, exponent = np.frexp(np.abs(rhs).max())
    scaled = np.ldexp(rhs, -exponent).astype(panels[0].dtype)
    return np.ldexp(_substitute(panels, scaled).astype(np.float64), exponent)


def _solve_refined(
    features: np.ndarray, targets: np.ndarray, gamma: float, alpha: float,
    dtype: type, bound: float,
) -> tuple[np.ndarray, float] | None:
    """Factor ``K + alpha * I`` in ``dtype`` and refine its solve as
    ``fit_krr``'s Notes say, until the residual's norm is also at most
    ``bound``: the x of the smallest residual and that residual's norm, or
    None when the factorization breaks down. ``N + alpha`` bounds the
    system's infinity norm, since 0 <= K <= 1. An unstable factorization's
    overflow or NaN shows in the residual, not as a warning."""
    n = len(targets)
    tolerance = math.sqrt(n) * (n + alpha) * np.finfo(np.float64).eps
    with np.errstate(over="ignore", invalid="ignore"):
        panels = _ridge_panels(features, gamma, alpha, dtype)
        try:
            _factor_panels(panels)
        except np.linalg.LinAlgError:
            return None
        best, best_size = None, math.inf
        x = _solve_factored(panels, targets)
        while True:
            residual = targets - _system_product(features, gamma, alpha, x)
            size = float(np.abs(residual).max())
            if best is not None and not size < best_size:
                break
            shrunk = 4.0 * size <= best_size
            best, best_size = (x, float(np.linalg.norm(residual))), size
            if (size <= tolerance * np.abs(x).max() and best[1] <= bound) or not shrunk:
                break
            x = x + _solve_factored(panels, residual)
        return best


def fit_krr(
    features: np.ndarray,
    targets: np.ndarray,
    gamma: float | None = None,
    alpha: float = 1.0,
) -> KRRModel:
    """Solve (K + alpha * I) c = targets by a blocked Cholesky factorization.

    Parameters
    ----------
    features : (N, F) array
    targets : (N,) array
    gamma : float, optional
        RBF bandwidth; defaults to ``1 / (F * var(features))``.
    alpha : float
        Ridge strength. ``alpha = 0`` requests exact interpolation and
        fails with a clear error when the kernel matrix is numerically
        singular (duplicate points, or points close at the kernel's
        scale).

    Notes
    -----
    The fit holds the lower triangle of the system ``K + alpha * I`` as
    ``BLOCK_ROWS``-row panels, in float32 at most 2 * N * (N +
    ``BLOCK_ROWS``) bytes. When the float32 attempt falls short, the fit
    frees them and repeats in float64: at most 4 * N * (N + ``BLOCK_ROWS``)
    bytes, plus the factorization's temporaries and each pass's one chunk
    buffer (``fit_bytes``). Before allocating any panel, the fit compares
    that float64 size with ``MEMORY_BUDGET_FRACTION`` of ``MemAvailable``
    in ``/proc/meminfo`` and raises ``ValueError`` naming N, the GiB needed
    and the GiB available when it does not fit. The check is skipped where
    that file cannot be read, and it does not see a cgroup memory limit, so
    a container may still be killed below it.

    Panel i holds block i's rows of the system up to the end of block i,
    zero above its diagonal. A blocked Cholesky factorization
    (about N**3 / 3 flops) overwrites the panels with the factor L by
    block rows, each block left of the diagonal by two GEMMs, one by the
    inverse of an earlier diagonal factor, inverted by halving down to
    ``INVERSE_BASE_ROWS`` rows. Each diagonal block holds that inverse in
    place of the factor, and the substitutions reuse it. A diagonal block
    that is not positive definite means the system is singular. numpy's
    factorization does not check its input for NaN or inf, so non-finite
    features, targets, ``gamma`` or ``alpha`` are rejected here, and so
    are features large enough for their squared distances to overflow and
    targets larger in magnitude than ``sqrt(max / (4 N))``, with ``max``
    the largest float64, for which the residual norms overflow.

    The solve is LAPACK DSPOSV's mixed-precision method (Langou
    et al., SC 2006). The panels are the float64 system's row chunks of
    ``_CHUNK_ROWS``, rounded, so the float32 system is exactly the float64
    one rounded. After the first solve, each pass forms the residual
    ``r = targets - (K + alpha * I) x`` in float64 from the same chunks
    and adds the factored solve of r; every factored solve scales its
    right-hand side by a power of two, exact in float64, so that neither
    large targets nor small residuals leave float32's range. Refinement
    stops when ``|r| <= sqrt(N) * (N + alpha) * eps * |x|`` in the
    infinity norm, DSPOSV's test, or at the first pass that shrinks the
    residual less than 4-fold, and keeps the x of the smallest residual. A
    result is accepted when its residual norm is at most
    ``1e-8 * (1 + ||targets||)``; a float32 attempt also refines until it
    is. The fit repeats in float64 when alpha overflows float32, when the
    float32 factorization breaks down, or when its result is not accepted.
    A float64 solve that meets DSPOSV's test at once is returned as it
    stands, accepted or refused as a single solve.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64)
    if features.shape[0] != targets.shape[0] or targets.ndim != 1:
        raise ValueError("features and targets must have matching first dimension")
    if features.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")
    if features.shape[1] == 0:
        raise ValueError("features must have at least one column")
    _check_features(features)
    if not np.isfinite(targets).all():
        raise ValueError("targets must be finite")
    _check_targets(targets)
    check_krr_settings(gamma, alpha)
    gamma = _default_gamma(features) if gamma is None else gamma
    n = features.shape[0]
    needed, available = fit_bytes(n), _available_memory_bytes()
    if available is not None and needed > MEMORY_BUDGET_FRACTION * available:
        raise ValueError(
            f"the exact kernel fit on N = {n} training records needs "
            f"{needed / 2**30:.2f} GiB (the lower triangle of the N x N float64 "
            f"kernel system), more than {MEMORY_BUDGET_FRACTION:.0%} of the "
            f"{available / 2**30:.2f} GiB of memory available; train on fewer records"
        )
    remedy = "use alpha > 0" if alpha == 0.0 else "use a larger alpha"
    bound = 1e-8 * (1.0 + float(np.linalg.norm(targets)))
    solved = None
    # float32 holds K + alpha * I unless alpha overflows it.
    if alpha + 1.0 <= float(np.finfo(np.float32).max):
        solved = _solve_refined(features, targets, gamma, alpha, np.float32, bound)
    if solved is None or not solved[1] <= bound:
        # DSPOSV's test alone ends it, so a float64 solve that meets the test
        # at once is accepted or refused as one solve.
        solved = _solve_refined(features, targets, gamma, alpha, np.float64, math.inf)
    if solved is None:
        raise ValueError(f"the kernel system is numerically singular; {remedy}")
    coefficients, residual = solved
    # Written so that a NaN residual fails too.
    if not residual <= bound:
        raise ValueError(
            f"kernel solve residual {residual:.3e} too large; "
            f"the system is numerically singular; {remedy}"
        )
    return KRRModel(
        support=features.copy(),
        coefficients=coefficients,
        gamma=float(gamma),
        alpha=float(alpha),
    )


def predict_krr(model: KRRModel, features: np.ndarray) -> np.ndarray:
    """Kernel expansion over the support points, ``BLOCK_ROWS`` test rows
    at a time, each block's kernel in one buffer that all blocks reuse."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.support.shape[1]:
        raise ValueError(
            f"features have width {features.shape[1]}, "
            f"model expects {model.support.shape[1]}"
        )
    # As in fit_krr: a NaN or inf would pass through as a NaN score.
    _check_features(features)
    predictions = np.empty(features.shape[0])
    sq, support_sq = ((z * z).sum(axis=1) for z in (features, model.support))
    out = np.empty(_kernel_doubles(min(len(features), BLOCK_ROWS), len(model.support)))
    for rows in _blocks(features.shape[0]):
        predictions[rows] = (
            _kernel(features[rows], model.support, sq[rows], support_sq, model.gamma, out)
            @ model.coefficients
        )
    return predictions
