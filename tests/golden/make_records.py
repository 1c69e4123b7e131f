"""Write the golden trial records of `run_experiment` on two fixed configs.

Run from the repository root:

    python3 tests/golden/make_records.py [--src DIR] [--out PATH] [--config NAME ...]

``--src`` is the ``turbomp`` source tree to record (default: this
repository's ``src``).  ``--config NAME`` (repeatable) recomputes only the
named configs' records; every other config's records are copied from
``--out`` unchanged, and every config is written from ``CONFIGS``.

The committed ``multipath`` records were written from the tree whose channel
realization still held the dense K x N x M response tensor, so
``tests/test_record_golden.py`` checks that holding the active devices'
responses only leaves every trial record unchanged.  The ``exact`` records,
which run the default EM noise update, were recomputed when that update
became max(m, s).  Both configs pin ``rel_change_tol`` at 1e-6, the default
they were recorded with.  The test recomputes the records and never
rewrites the file.

The file maps each config name to ``{"config": ..., "records": [...]}``:
the config document as ``ExperimentConfig.from_dict`` reads it (the
multipath config names the bundled profile as ``"example"``) and the trial
records of every SNR point in order, with ``wall_s`` left out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
IGNORED = ("wall_s",)  # timing, the one field that differs between runs

CONFIGS = {
    "multipath": dict(
        K=1000, N=72, T=8, Q=4, M=8, lam=0.05, snr_db=[-15.0, 60.0], channel="multipath",
        pdp_file="example", em_sigma_correction=True, max_iters=15, rel_change_tol=1e-6, trials=3,
        master_seed=5,
    ),
    "exact": dict(
        K=200, N=24, T=8, Q=4, M=4, lam=0.05, snr_db=[10.0], channel="exact",
        theta_H=1.0, theta_C=0.01, rel_change_tol=1e-6, trials=4, master_seed=3,
    ),
}


def records(tm, name):
    """The trial records of one config, in point then trial order, without `IGNORED`."""
    from turbomp.channel import example_pdp_path

    doc = dict(CONFIGS[name])
    if doc.get("pdp_file") == "example":
        doc["pdp_file"] = example_pdp_path()
    result = tm.run_experiment(tm.ExperimentConfig.from_dict(doc))
    return [{k: v for k, v in r.items() if k not in IGNORED}
            for point in result.points for r in point.trials]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(HERE.parent.parent / "src"))
    parser.add_argument("--out", default=str(HERE / "records_golden.json"))
    parser.add_argument("--config", action="append", choices=list(CONFIGS),
                        help="recompute only this config's records (repeatable); the others are "
                             "copied")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import turbomp as tm

    old = json.loads(Path(args.out).read_text()) if args.config else {}
    out = {}
    for name in CONFIGS:
        copied = args.config and name not in args.config
        out[name] = {"config": CONFIGS[name],
                     "records": old[name]["records"] if copied else records(tm, name)}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    counts = ", ".join(f"{name}: {len(doc['records'])} records" for name, doc in out.items())
    print(f"wrote {args.out} ({counts}) from {tm.__file__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
