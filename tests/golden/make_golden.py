"""Write the golden record of the Turbo-MP engine: the inputs and outputs of six frames.

Run from the repository root:

    python3 tests/golden/make_golden.py [--src DIR] [--out PATH] [--case NAME ...]

``--src`` is the ``turbomp`` source tree to record (default: this
repository's ``src``).  ``--case NAME`` (repeatable) recomputes only the
named cases: every other case's arrays are copied from ``--out`` unchanged,
except that its ``options`` are written from ``CASES``, so an option pinned
there reaches the file without touching the outputs.

The committed ``engine_golden.npz`` was written from commit 47baf1d, the
engine before the closed-form linear extrinsic and the cached forward
products, so ``tests/test_golden.py`` checks that the lean iteration
reproduces it.  The exception is ``multipath_60db``, the one case that runs
the default EM noise update: it was recomputed when that update became
max(m, s) (see ``turbomp.em.em_schedule``).  The two clamp members of
``vmax_clamped``, ``clamp_events`` and ``rows_clamp_events``, were rewritten
alone when ``clamp_events`` began to count the messages clamped at
``turbomp.lmmse.V_MAX``; the older engine counted a different event and
stored 0.  The cases whose frames stop on the tolerance pin
``rel_change_tol`` at 1e-6, the default they were recorded with.  The test
replays the stored inputs (observation, pilot rows, priors, options) and
never rewrites the file.

This script drives only trees whose ``ChannelRealization`` holds
``activity`` and ``G_active`` and whose ``mix_subcarriers`` takes the active
rows and their indices; ``replay`` hands the truth-traced case the active
rows of the stored dense ``G``.  To record an older tree, such as 47baf1d,
run the script as it stood in that tree's own history.

Each case stores, under ``<case>__<key>``:

* inputs: ``dims`` (K, N, T, Q), ``power``, ``selections``, ``Y``,
  ``priors`` (theta_H, theta_C, sigma_w2, lam), ``options`` (JSON of
  the ``TurboOptions`` fields that differ from the defaults, plus the message
  clamp ``v_max`` of ``vmax_clamped``, which ``replay`` sets as
  ``turbomp.lmmse.V_MAX`` for the duration of the run) and, for the
  truth-traced case, the dense (K, N, M) ``G`` and ``activity``;
* outputs: ``H``/``C`` rows of the devices in ``devices`` (all devices
  except in the K=1000 frame, where the record keeps the active devices and
  every fourth one), the squared norms ``H_norm2``/``C_norm2`` of the full
  estimates, ``lambda_D_post``, ``priors_out``, ``iterations``,
  ``converged``, ``clamp_events`` and the per-row diagnostics
  ``rows_<field>`` (``nmse_db`` is NaN where it was not traced).

The committed cases also hold ``module_trace``, the order of the module calls
as the recording tree logged it.  The engine runs one fixed schedule and no
longer logs it, so this script does not write that key and the test does not
read it.  They also hold ``strict``, the codebook flag of the recording tree;
neither ``PilotCodebook`` nor ``build_codebook`` has such a flag (a codebook
accepts every selection its operators are exact for, and ``build_codebook``
always draws T*N distinct rows), so that key goes unread too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROW_FIELDS = ("v_h", "v_c", "sigma_w2", "lam", "rel_change", "nmse_db", "clamp_events")

# name: (channel, dims (K, N, T, Q, M), lam, snr_db, seed, TurboOptions overrides, traced)
CASES = {
    "exact_fixed": (
        "exact", (128, 16, 8, 4, 2), 0.1, 20.0, 1, {"max_iters": 50, "rel_change_tol": 1e-6}, False,
    ),
    "multipath_em_corrected": (
        "multipath", (128, 24, 4, 4, 2), 0.1, -5.0, 2,
        {"max_iters": 20, "rel_change_tol": 1e-6, "em_enabled": True, "em_sigma_correction": True},
        False,
    ),
    "multipath_60db": (
        "multipath", (128, 24, 4, 4, 4), 0.1, 60.0, 3,
        {"max_iters": 50, "rel_change_tol": 1e-6, "em_enabled": True}, False,
    ),
    "vmax_clamped": (
        "exact", (96, 8, 4, 2, 3), 0.1, 10.0, 5,
        {"max_iters": 30, "rel_change_tol": 1e-6, "v_max": 0.3}, False,
    ),
    "truth_traced": (
        "exact", (64, 8, 2, 2, 2), 0.2, 10.0, 6, {"max_iters": 12, "rel_change_tol": 1e-6}, True,
    ),
    "paper_frame": (
        "multipath", (1000, 72, 8, 4, 8), 0.05, -15.0, 7,
        {"max_iters": 15, "rel_change_tol": 1e-6, "em_enabled": True, "em_sigma_correction": True},
        False,
    ),
}
THETA_H, THETA_C = 1.0, 0.05  # prior of the exact-channel cases


def case_inputs(tm, name):
    """Draw one case's frame through the public API; returns the stored inputs."""
    channel, (K, N, T, Q, M), lam, snr_db, seed, options, traced = CASES[name]
    basis = tm.BlockwiseBasis(N, Q)
    if channel == "exact":
        _, real = tm.sample_blockwise_exact(K, M, basis, lam, THETA_H, THETA_C, seed=seed)
    else:
        from turbomp.channel import example_pdp_path

        activity = tm.sample_activity(K, lam, seed=seed)
        real = tm.sample_channel(tm.load_pdp(example_pdp_path()), activity, M, N, 15e3, seed=seed + 1)
    cb = tm.build_codebook(K, N, T, Q, seed=seed + 2)
    sn2 = 10.0 ** (-snr_db / 10.0)
    rng = np.random.default_rng(seed + 3)
    noise = np.sqrt(sn2 / 2) * (rng.standard_normal((cb.rows, M)) + 1j * rng.standard_normal((cb.rows, M)))
    Y = cb.mix_subcarriers(real.G_active, real.active) + noise
    if channel == "exact":
        priors = (THETA_H, THETA_C, sn2, lam)
    else:
        p = tm.em_initial_params(Y, cb)
        priors = (p.theta_H, p.theta_C, p.sigma_w2, p.lam)
    doc = {
        "dims": np.array([K, N, T, Q]),
        "power": np.array(cb.power),
        "selections": cb.selections,
        "Y": Y,
        "priors": np.array(priors),
        "options": np.array(json.dumps(options)),
    }
    if traced:
        doc["G"], doc["activity"] = real.G, real.activity
    return doc


def replay(tm, doc):
    """Run the engine on stored inputs; returns the TurboResult."""
    K, N, T, Q = (int(v) for v in doc["dims"])
    cb = tm.PilotCodebook(K=K, N=N, T=T, Q=Q, power=float(doc["power"]),
                          selections=doc["selections"])
    priors = tm.PriorParams(*(float(v) for v in doc["priors"]))
    options = json.loads(str(doc["options"]))
    truth = None
    if "G" in doc:
        activity = doc["activity"]
        real = tm.ChannelRealization(activity=activity, G_active=doc["G"][np.flatnonzero(activity)])
        truth = (real, tm.BlockwiseBasis(N, Q))
    saved = tm.lmmse.V_MAX
    tm.lmmse.V_MAX = options.pop("v_max", saved)  # the message clamp is a constant of lmmse
    try:
        return tm.run_turbo_mp(doc["Y"], cb, priors, tm.TurboOptions(**options), truth=truth)
    finally:
        tm.lmmse.V_MAX = saved


def recorded_devices(K, lambda_post):
    """Device rows kept in the record: all of them up to K=256, else the likely
    active ones plus every fourth device."""
    if K <= 256:
        return np.arange(K)
    return np.union1d(np.flatnonzero(lambda_post > 0.5), np.arange(0, K, 4))


def outputs(result, Q, devices):
    M = result.H.shape[1]
    K = result.H.shape[0] // Q
    rows = result.diagnostics.rows
    nan = float("nan")
    out = {
        "devices": devices,
        "H": result.H.reshape(K, Q * M)[devices],
        "C": result.C.reshape(K, Q * M)[devices],
        "H_norm2": np.array(np.sum(np.abs(result.H) ** 2)),
        "C_norm2": np.array(np.sum(np.abs(result.C) ** 2)),
        "lambda_D_post": result.lambda_D_post,
        "priors_out": np.array([result.priors.theta_H, result.priors.theta_C,
                                result.priors.sigma_w2, result.priors.lam]),
        "iterations": np.array(result.iterations),
        "converged": np.array(result.converged),
        "clamp_events": np.array(result.diagnostics.clamp_events),
    }
    for name in ROW_FIELDS:
        out[f"rows_{name}"] = np.array([nan if r[name] is None else r[name] for r in rows], dtype=float)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(HERE.parent.parent / "src"))
    parser.add_argument("--out", default=str(HERE / "engine_golden.npz"))
    parser.add_argument("--case", action="append", choices=list(CASES),
                        help="recompute only this case (repeatable); the others are copied")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import turbomp as tm

    old = {}
    if args.case:
        with np.load(args.out) as data:
            old = {key: data[key] for key in data.files}
    record = {}
    for name in CASES:
        if args.case and name not in args.case:
            record.update({key: value for key, value in old.items() if key.startswith(name + "__")})
            record[f"{name}__options"] = np.array(json.dumps(CASES[name][5]))
            print(f"{name}: copied, options {CASES[name][5]}")
            continue
        doc = case_inputs(tm, name)
        result = replay(tm, doc)
        K, Q = int(doc["dims"][0]), int(doc["dims"][3])
        devices = recorded_devices(K, result.lambda_D_post)
        for key, value in {**doc, **outputs(result, Q, devices)}.items():
            record[f"{name}__{key}"] = value
        print(f"{name}: {result.iterations} iterations, converged={result.converged}, "
              f"clamp_events={result.diagnostics.clamp_events}, {devices.size} devices kept")
    np.savez_compressed(args.out, **record)
    print(f"wrote {args.out} ({Path(args.out).stat().st_size / 1024:.0f} KiB) from {tm.__file__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
