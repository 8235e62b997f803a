"""CSV emission: diagnostics series, convergence tables, field snapshots.

All floating-point values are written with 13 significant digits so that
convergence orders are recomputable from the files to high precision.
Outputs are deterministic: identical runs produce byte-identical files.
"""

import math
import os


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{v:.12e}"


def write_diagnostics(path, records):
    """diagnostics.csv: t, per-species mass, energy, minima, limiter count,
    mu0, then the per-species test-set minima after limiting."""
    species = range(1, len(records[0].masses) + 1)
    cols = ["t"]
    cols += [f"mass_{i}" for i in species]
    cols += ["energy"]
    cols += [f"min_avg_{i}" for i in species]
    cols += [f"min_g_{i}" for i in species]
    cols += ["theta_count", "mu0"]
    cols += [f"min_g_post_{i}" for i in species]
    lines = ["# energy column: diagnostic convention (entropy + half electrostatic), "
             "not a reproduced quantity"]
    lines.append(",".join(cols))
    for r in records:
        row = [_fmt(r.t)]
        row += [_fmt(m) for m in r.masses]
        row += [_fmt(r.energy)]
        row += [_fmt(m) for m in r.min_avgs]
        row += [_fmt(m) for m in r.min_g_pre]
        row += [str(r.n_limited), _fmt(r.mu0)]
        row += [_fmt(m) for m in r.min_g_post]
        lines.append(",".join(row))
    _write(path, lines)


def observed_orders(sizes, errors, inverse=False):
    """Orders log(e_coarse/e_fine)/log(h_coarse/h_fine); None for the first
    row, NaN where either error of the pair is 0.

    `sizes` are h values (inverse=False) or N values (inverse=True).
    """
    out = [None]
    for i in range(1, len(sizes)):
        ratio = sizes[i] / sizes[i - 1] if inverse else sizes[i - 1] / sizes[i]
        coarse, fine = errors[i - 1], errors[i]
        out.append(math.log(coarse / fine) / math.log(ratio) if coarse and fine else math.nan)
    return out


def write_errors(path, col0_name, col0_values, errors_by_field, orders, inverse=False):
    """errors.csv with (err, order) column pairs per field.

    errors_by_field: ordered mapping field name -> list of errors per size;
    orders: field name -> its `observed_orders`. `inverse` writes the sizes
    as integers N rather than as h values.
    """
    names = list(errors_by_field)
    cols = [col0_name]
    for name in names:
        cols += [f"err_{name}", f"order_{name}"]
    lines = [",".join(cols)]
    for i, v in enumerate(col0_values):
        row = [_fmt(float(v)) if not inverse else str(v)]
        for n in names:
            row += [_fmt(errors_by_field[n][i]), _fmt(orders[n][i])]
        lines.append(",".join(row))
    _write(path, lines)


def write_snapshot(path, coeffs):
    """Per-cell modal coefficients of one field, `coeffs` of shape (n_cells, nb)."""
    lines = ["cell," + ",".join(f"coef_{m}" for m in range(coeffs.shape[1]))]
    for n, row in enumerate(coeffs):
        lines.append(str(n) + "," + ",".join(_fmt(float(v)) for v in row))
    _write(path, lines)


def write_steady_report(path, rows):
    """steady.csv: per-step maximum coefficient change."""
    lines = ["step,t,max_change"]
    for step, t, change in rows:
        lines.append(f"{step},{_fmt(t)},{_fmt(change)}")
    _write(path, lines)


def _write(path, lines):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
