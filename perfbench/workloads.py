"""The benchmark's workloads: one `edslab` config each, derived from a seed.

`--seed S` offsets every seed in the config: the experiment seed (the
perturbation directions) and, for `lq_chain`, the model seed (the random
chain itself).  `S = 0` gives the documented default configs, and only
there are the outputs compared with the reference values below.
"""
from __future__ import annotations

WORKLOADS = ("quad_contrast", "lq_horizon", "lq_many_perturbations")


def _lq(N, stages, replicates, seed, tiny):
    if tiny:
        N, stages, replicates = 10, stages[:1] if len(stages) == 1 else [0, 5], min(replicates, 2)
    return {
        "model": "lq_chain",
        "params": {"n_x": 6, "n_u": 3, "N": N, "stability": 0.9, "seed": 5 + seed},
        "stages": stages,
        "replicates": replicates,
        "magnitude": 0.1,
        "seed": 7 + seed,
        "window_ctrl": 2,
        "window_obs": 2,
    }


def config(name: str, seed: int, tiny: bool = False) -> dict:
    """The edslab config of workload `name` at benchmark seed `seed`; `tiny`
    shrinks the horizon so the smoke test runs in seconds."""
    if name == "quad_contrast":
        N = 8 if tiny else 60
        return {
            "model": "quadrotor",
            "params": {"dt": 0.5, "N": N},
            "cases": [
                {"name": "case1", "params": {"q": 1.0, "b": 1.0}},
                {"name": "case2", "params": {"q": 0.0, "b": 0.0}},
            ],
            "stages": [N // 2],
            "replicates": 3,
            "magnitude": 0.1,
            "seed": 42 + seed,
            "window_ctrl": 3,
            "window_obs": 3,
        }
    if name == "lq_horizon":
        return _lq(120, [5] if tiny else [60], 1, seed, tiny)
    if name == "lq_many_perturbations":
        return _lq(60, list(range(0, 60, 5)), 8, seed, tiny)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


# Outputs at seed 0 of the full-size workloads: the least-squares decay rate
# and the certificate moduli and pass/fail flags of every case.  Case2 of the
# quadrotor has beta ~ 4e-10, so scalars are compared with an absolute as
# well as a relative tolerance.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-9

_ALL_PASS = {
    "licq_ok": True,
    "sosc_ok": True,
    "sosc_vacuous": False,
    "flag_ctrl_uniform": True,
    "flag_delta_positive": True,
    "flag_k_bounded": True,
    "flag_obs_uniform": True,
    "flag_q_psd": True,
    "flag_r_positive": True,
    "flag_s_zero": True,
    "corollary_ok": True,
}

REFERENCE = {
    "quad_contrast": {
        "case1": {
            "rho_ls": 0.6367423859397007,
            "beta": 0.054728937123198852,
            "gamma": 1.9999999999999929,
            "L_observed": 7.1919325355025094,
            "flags": _ALL_PASS,
        },
        "case2": {
            "rho_ls": 0.9462934332055816,
            "beta": 3.8757714940689552e-10,
            "gamma": 0.00099689636298827804,
            "L_observed": 7.1919325355025192,
            "flags": {
                **_ALL_PASS,
                "licq_ok": False,
                "flag_ctrl_uniform": False,
                "flag_obs_uniform": False,
                "corollary_ok": False,
            },
        },
    },
    "lq_horizon": {
        "base": {
            "rho_ls": 0.4261874207942842,
            "beta": 0.15111978376696961,
            "gamma": 1.9999999999999925,
            "L_observed": 4.8486675633613991,
            "flags": _ALL_PASS,
        },
    },
    "lq_many_perturbations": {
        "base": {
            "rho_ls": 0.43707159949471436,
            "beta": 0.15111978376696955,
            "gamma": 1.9999999999999933,
            "L_observed": 4.8485377766423206,
            "flags": _ALL_PASS,
        },
    },
}
