"""Output checks for the benchmark workloads.

Every reference value is computed here, from the closed-form solutions,
with numpy's Gauss-Legendre rule and the solver's documented modal basis
{1, xi, (3 xi^2 - 1)/2} (in 2D its six products of total degree <= 2).
Nothing is compared against a stored copy of the solver's output.

Each check raises CheckError listing every violation it found.
"""

import csv
import math
import os

import numpy as np

PAIRS_2D = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

# the lower limit on error / projection error: an error norm that reports
# less than the best P2 approximation can reach is under-reporting
MIN_PROJECTION_RATIO = 0.9


class CheckError(Exception):
    pass


def _legendre(xi):
    return np.stack([np.ones_like(xi), xi, 0.5 * (3.0 * xi * xi - 1.0)], axis=-1)


def _cell_nodes(lo, hi, n, xi):
    """Physical nodes (n, q) of the reference nodes xi in n equal cells."""
    h = (hi - lo) / n
    centers = lo + h * (np.arange(n) + 0.5)
    return centers[:, None] + 0.5 * h * xi[None, :], h


def projection_error_1d(f, lo, hi, n, n_proj=8, n_norm=16):
    """L1 norm of f - Pf on n equal cells of [lo, hi]; P the per-cell L2
    projection onto P2."""
    xi, w = np.polynomial.legendre.leggauss(n_proj)
    x, h = _cell_nodes(lo, hi, n, xi)
    norm = (2.0 * np.arange(3) + 1.0) / 2.0
    coef = ((f(x) * w) @ _legendre(xi)) * norm               # (n, 3)
    xi2, w2 = np.polynomial.legendre.leggauss(n_norm)
    x2, _ = _cell_nodes(lo, hi, n, xi2)
    err = np.abs(coef @ _legendre(xi2).T - f(x2))
    return float((err @ w2).sum() * h / 2.0)


def _basis_2d(xi, eta):
    """Modal 2D basis on the tensor grid xi x eta: shape (qx, qy, 6)."""
    lx, ly = _legendre(xi), _legendre(eta)
    return np.stack([lx[:, None, a] * ly[None, :, b] for a, b in PAIRS_2D], axis=-1)


def projection_error_2d(f, lx, ly, n, n_proj=8, n_norm=12):
    """L1 norm of f - Pf on the n x n mesh of [0, lx] x [0, ly]; P the
    per-cell L2 projection onto the six-function P2 basis."""
    xi, w = np.polynomial.legendre.leggauss(n_proj)
    x, hx = _cell_nodes(0.0, lx, n, xi)
    y, hy = _cell_nodes(0.0, ly, n, xi)
    fq = f(x[:, None, :, None], y[None, :, None, :])          # (nx, ny, q, q)
    phi = _basis_2d(xi, xi)
    norm = np.array([(2 * a + 1) * (2 * b + 1) / 4.0 for a, b in PAIRS_2D])
    coef = np.einsum("ijpq,p,q,pqm->ijm", fq, w, w, phi) * norm
    xi2, w2 = np.polynomial.legendre.leggauss(n_norm)
    x2, _ = _cell_nodes(0.0, lx, n, xi2)
    y2, _ = _cell_nodes(0.0, ly, n, xi2)
    err = np.abs(np.einsum("ijm,pqm->ijpq", coef, _basis_2d(xi2, xi2))
                 - f(x2[:, None, :, None], y2[None, :, None, :]))
    return float(np.einsum("ijpq,p,q->", err, w2, w2) * hx * hy / 4.0)


def integral_2d(f, lx, ly, n_quad=24):
    """Integral of f over [0, lx] x [0, ly] by one tensor Gauss rule."""
    xi, w = np.polynomial.legendre.leggauss(n_quad)
    x = 0.5 * lx * (xi + 1.0)
    y = 0.5 * ly * (xi + 1.0)
    return float(np.einsum("p,q,pq->", w, w, f(x[:, None], y[None, :])) * lx * ly / 4.0)


def _read_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _num(s):
    return float(s) if s not in ("", None) else None


def check_error_table(out_dir, col0, sizes, proj_errors, order_floors, max_ratio):
    """errors.csv of a convergence run.

    col0: "h" (1D, values are the cell widths in `sizes`) or "N" (2D,
    cells per direction). proj_errors: field -> projection error per size.
    order_floors: field -> least order on the finest pair. Every error must
    lie in [MIN_PROJECTION_RATIO, max_ratio] times its projection error;
    the written orders must match the ones recomputed from the errors.
    """
    rows = _read_rows(os.path.join(out_dir, "errors.csv"))
    bad = []
    if len(rows) != len(sizes):
        raise CheckError(f"errors.csv has {len(rows)} rows, expected {len(sizes)}")
    for row, s in zip(rows, sizes):
        if not math.isclose(float(row[col0]), s, rel_tol=1e-11):
            bad.append(f"{col0} = {row[col0]}, expected {s}")
    for field, proj in proj_errors.items():
        errs = [_num(r.get(f"err_{field}")) for r in rows]
        if any(e is None or not math.isfinite(e) or e <= 0 for e in errs):
            bad.append(f"{field}: missing or nonpositive errors {errs}")
            continue
        for s, e, p in zip(sizes, errs, proj):
            ratio = e / p
            if not MIN_PROJECTION_RATIO <= ratio <= max_ratio:
                bad.append(f"{field} at {col0}={s}: error {e:.4e} is {ratio:.3f}x the "
                           f"projection error {p:.4e}, outside "
                           f"[{MIN_PROJECTION_RATIO}, {max_ratio}]")
        for i in range(1, len(sizes)):
            refine = sizes[i] / sizes[i - 1] if col0 == "N" else sizes[i - 1] / sizes[i]
            order = math.log(errs[i - 1] / errs[i]) / math.log(refine)
            written = _num(rows[i].get(f"order_{field}"))
            if written is None or abs(written - order) > 1e-9:
                bad.append(f"{field}: written order {written} != recomputed {order:.12f}")
            if i == len(sizes) - 1 and order < order_floors[field]:
                bad.append(f"{field}: finest order {order:.3f} < {order_floors[field]}")
    if bad:
        raise CheckError("; ".join(bad))


def check_relaxation(out_dir, steps, t_final, mu, cell_area, masses, rel_tol=1e-10):
    """diagnostics.csv and snapshots of a positivity run with cadence 1.

    Every cell-average minimum is positive, the limiter acted at t = 0,
    mu0 is at least the run's mesh ratio mu in every row, and every
    species mass (diagnostics rows and final snapshot) equals `masses`
    within rel_tol.
    """
    rows = _read_rows(os.path.join(out_dir, "diagnostics.csv"))
    bad = []
    if len(rows) != steps + 1:
        bad.append(f"diagnostics.csv has {len(rows)} rows, expected {steps + 1}")
    if rows and not math.isclose(float(rows[-1]["t"]), t_final, rel_tol=1e-12):
        bad.append(f"last row at t = {rows[-1]['t']}, expected {t_final}")
    if rows and int(rows[0]["theta_count"]) <= 0:
        bad.append("limiter did not act at t = 0 (theta_count = 0)")
    for k, row in enumerate(rows):
        for i, exact in enumerate(masses, start=1):
            if float(row[f"min_avg_{i}"]) <= 0.0:
                bad.append(f"row {k}: min_avg_{i} = {row[f'min_avg_{i}']} <= 0")
            m = float(row[f"mass_{i}"])
            if abs(m - exact) > rel_tol * exact:
                bad.append(f"row {k}: mass_{i} = {m!r}, exact {exact!r}")
        if not float(row["mu0"]) >= mu:
            bad.append(f"row {k}: mu0 = {row['mu0']} < mesh ratio {mu}")
    for i, exact in enumerate(masses, start=1):
        snap = _read_rows(os.path.join(out_dir, f"snapshot_c{i}.csv"))
        avgs = np.array([float(r["coef_0"]) for r in snap])
        if np.any(avgs <= 0.0):
            bad.append(f"snapshot_c{i}: {int((avgs <= 0).sum())} nonpositive cell averages")
        m = float(avgs.sum()) * cell_area
        if abs(m - exact) > rel_tol * exact:
            bad.append(f"snapshot_c{i}: mass {m!r}, exact {exact!r} "
                       f"(relative {abs(m - exact) / exact:.2e})")
    if bad:
        raise CheckError("; ".join(bad[:10]) + (f"; ... {len(bad)} in all" if len(bad) > 10
                                                 else ""))
