"""Reference metrics pass: the earlier per-round evaluate_trace, kept verbatim.

It forms each round's quadratic coefficients and CCV increment in a Python
loop over the rounds, one round's (n, ...) slices at a time. The package's
whole-trace evaluate_trace must agree with it bit for bit.
"""

from __future__ import annotations

import numpy as np

from banditpd.metrics import TraceEvaluation, _mean_round_loss


def evaluate_trace(trace) -> TraceEvaluation:
    spec = trace.problem
    n, p = spec.n, spec.p
    rounds = trace.rounds
    ccv_inc = np.empty(rounds)
    quad_P = np.empty((rounds, p, p))
    quad_r = np.empty((rounds, p))
    quad_c = np.empty(rounds)
    eye = np.eye(p)

    for k in range(rounds):
        A, theta, B, b = trace.A[k], trace.theta[k], trace.B[k], trace.b[k]
        slack = np.einsum("jmp,ip->jim", B, trace.x_hist[k]) - b[:, None, :]
        np.clip(slack, 0.0, None, out=slack)
        ccv_inc[k] = np.sqrt(np.einsum("jim,jim->i", slack, slack)).mean()

        quad_P[k] = np.einsum("jqa,jqb->ab", A, A) / n
        if spec.mu_reg:
            quad_P[k] += spec.mu_reg * eye
        quad_r[k] = np.einsum("jqp,jq->p", A, theta) / n
        quad_c[k] = 0.5 * float(np.einsum("jq,jq->", theta, theta)) / n

    return TraceEvaluation(
        problem=spec, rounds=rounds,
        mean_loss_inc=_mean_round_loss(quad_P, quad_r, quad_c, trace.x_hist),
        ccv_inc=ccv_inc, quad_P=quad_P, quad_r=quad_r, quad_c=quad_c,
        pool_normals=trace.B.reshape(-1, p), pool_offsets=trace.b.reshape(-1),
    )
