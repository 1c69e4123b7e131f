"""Self time per span name, per trial, from a trace written by ``run.py --trace 1``.

    python3 bench/spans.py bench/out/trace-massive_k.tsv

Prints the names with the largest self time, in ms per traced trial.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

from probe import self_times


def main(path: str, top: int = 20) -> None:
    trials = defaultdict(list)
    with open(path) as f:
        next(f)
        for line in f:
            trial, _, parent, name, start, end = line.rstrip("\n").split("\t")
            trials[trial].append((name, float(start), float(end), int(parent)))
    trials.pop("-", None)  # the parent process's own spans
    totals = Counter()
    for spans in trials.values():
        for (name, *_), self_s in zip(spans, self_times(spans)):
            totals[name] += self_s
    print(f"{len(trials)} traced trials")
    for name, self_s in totals.most_common(top):
        print(f"{1000.0 * self_s / len(trials):10.2f} ms/trial  {name}")


if __name__ == "__main__":
    main(sys.argv[1])
