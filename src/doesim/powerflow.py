"""Three-phase unbalanced load flow on radial feeders.

The solver is a fixed-point current-injection sweep: nodal currents are
computed from the constant-PQ injections and the present voltage guess,
aggregated leaf-to-root along the tree, and voltages are then updated
root-to-leaf across each line's 3x3 series impedance.  Convergence is
declared on the power mismatch of the full nodal equations
S_i = V_i * conj(I_i), where the nodal current I_i sums y_l (V_i - V_k)
over the lines l joining bus i to its neighbours k, using each line's
admittance block (the inverse of the impedance the sweep uses), so the
sweep and the convergence test take independent routes through the
network model.  This is the product with the dense nodal admittance matrix
evaluated in O(N); ``AdmittanceModel.ybus``, built only when first read,
is the tests' oracle for it.

``solve_batch`` is the one entry point: a batch of injection sets shares
one admittance model and is swept in lock-step, and a single load flow
(``doesim pf``) is a batch of one.  The envelope stage's screen calls it
once per batch it flows: a check batch of fit points and checked
scenarios (two on a step whose carried model is refitted), then the
scenarios its model leaves near the band edge, or every scenario on a
fallback.  The grid replay flows a block of control steps at a time as a
stack of batches, one group of sub-steps per step, as many steps as fill
``MISMATCH_BLOCK`` sub-steps; each group is copied out at its own last
sweep, so it gets exactly the voltages of a call of its own.  Inside the
solver the batch is held bus-major, (N, B, 3), so each bus's block of the
batch is contiguous, and the residual runs over blocks of at most
``MISMATCH_BLOCK`` elements.
"""

from __future__ import annotations

import logging

import numpy as np

from .feeder import AdmittanceModel

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-8
DEFAULT_MAXITER = 100
# Batch elements per residual block; halved the residual's time on a
# 137-bus feeder at 500 elements.
MISMATCH_BLOCK = 128


def _power_mismatch(adm: AdmittanceModel, v: np.ndarray, s: np.ndarray,
                    slack_idx: int) -> np.ndarray:
    """Max |S_calc - S_spec| per batch element over non-slack nodes, pu.

    v, s: bus-major (N, B, 3).  The current y (v_bus - v_parent) of each
    line leaves its fed bus and enters its parent.  A batch of more than
    ``MISMATCH_BLOCK`` is evaluated that many elements at a time: the
    residual's temporaries are a few (N, B, 3) arrays, and on large batches
    the whole-batch pass is bound by memory traffic.
    """
    b = v.shape[1]
    if b > MISMATCH_BLOCK:
        return np.concatenate([
            _power_mismatch(adm, v[:, k:k + MISMATCH_BLOCK], s[:, k:k + MISMATCH_BLOCK], slack_idx)
            for k in range(0, b, MISMATCH_BLOCK)])
    j = np.matmul(v - v[adm.upstream], adm.y_line_pu.transpose(0, 2, 1))
    i_node = j.copy()
    for buses, parents in adm.sibling_rounds:
        i_node[parents] -= j[buses]
    del j
    # v * conj(I) - s in I's buffer, with v spelled out as the first operand:
    # numpy evaluates `v * <temporary>` in place past 256 KiB with the
    # operands swapped, which rounds differently, so the residual would
    # depend on the batch size.
    ds = np.multiply(v, np.conj(i_node, out=i_node), out=i_node)
    ds -= s
    ds[slack_idx] = 0.0
    return np.abs(ds).max(axis=0).max(axis=1)


def solve_batch(adm: AdmittanceModel, s_pu: np.ndarray, tol: float = DEFAULT_TOL,
                maxiter: int = DEFAULT_MAXITER):
    """Sweep-solve a batch of injection scenarios, or a stack of such batches.

    s_pu: (B, N, 3) complex net injections in per-unit (slack entries ignored),
    or a stack of G batches, (G, B, N, 3).  Returns (v, iterations, mismatch,
    converged): v of s_pu's shape, the sweeps run, and per scenario the
    residual after the last sweep and a boolean converged mask.
    Non-convergence is reported, not raised.  Logs each sweep's largest
    mismatch at DEBUG, from the one before the first sweep on.

    The groups of a stack are swept in lock-step in one set of arrays until
    the last finishes.  Rows never mix, so a group copied out at the sweep
    where its own B elements converge, or at ``maxiter``, gets exactly the
    result of a call of its own; iterations is then a (G,) array of each
    group's sweeps, and mismatch and converged are (G, B).  A single batch
    is a stack of one with an int iterations.
    """
    feeder = adm.feeder
    n = feeder.n_bus
    stacked = s_pu.ndim == 4
    g, b = s_pu.shape[:2] if stacked else (1, s_pu.shape[0])
    slack_idx = feeder.bus_index[feeder.slack_bus]

    # Bus-major: v[bus] and d[bus] are contiguous (G B, 3) blocks, group by group.
    v = np.tile(feeder.slack_phasors(), (n, g * b, 1))
    s = np.array(np.swapaxes(s_pu.reshape(g * b, n, 3), 0, 1), dtype=complex, order="C")
    s[slack_idx] = 0.0

    order = feeder.order.tolist()
    parent = feeder.parent.tolist()
    z = adm.z_line_pu

    # The result is allocated when the first group finishes, so the sweeps'
    # working arrays and it are not all held at once on a one-group batch.
    out = None
    mismatch = np.empty((g, b))
    sweeps = np.full(g, -1)  # -1 until the group is copied out

    mism = _power_mismatch(adm, v, s, slack_idx)
    for sweep in range(maxiter + 1):
        if log.isEnabledFor(logging.DEBUG):
            log.debug("sweep %d: max mismatch %.3e pu", sweep, mism.max(initial=0.0))
        done = (sweeps < 0) & ((mism.reshape(g, b) < tol).all(axis=1) | (sweep == maxiter))
        for k in np.flatnonzero(done):
            if out is None:
                out = np.empty((g, b, n, 3), dtype=complex)
            out[k] = np.swapaxes(v[:, k * b:(k + 1) * b], 0, 1)
            mismatch[k] = mism[k * b:(k + 1) * b]
            sweeps[k] = sweep
        if (sweeps >= 0).all():
            break
        # Backward: subtree injection currents -conj(s / v), formed in one
        # buffer and freed before the residual, accumulated toward the slack.
        d = np.divide(s, v)
        np.negative(np.conj(d, out=d), out=d)
        for bi in order[::-1]:
            d[parent[bi]] += d[bi]
        # Forward: voltage drop across each feeding line.
        for bi in order:
            v[bi] = v[parent[bi]] - d[bi] @ z[bi].T
        del d
        mism = _power_mismatch(adm, v, s, slack_idx)
    converged = mismatch < tol
    if stacked:
        return out, sweeps, mismatch, converged
    return out[0], int(sweeps[0]), mismatch[0], converged[0]


def check_limits(v_mag: np.ndarray, v_lo: float, v_hi: float) -> np.ndarray:
    """Indices of every entry of a magnitude array outside [v_lo, v_hi], one row each.

    v_mag may have any leading shape; rows come in C order, so a (sub-steps,
    N, 3) array gives (sub-step, bus, phase) order.  NaN counts as in band.
    """
    return np.argwhere((v_mag < v_lo) | (v_mag > v_hi))


def limits_mask(v: np.ndarray, v_lo: float, v_hi: float) -> np.ndarray:
    """Batch companion of check_limits: True where a scenario stays in band.

    v: (B, N, 3) complex voltages.
    """
    mags = np.abs(v)
    return ((mags >= v_lo) & (mags <= v_hi)).all(axis=(1, 2))
