"""Output checks on the CSVs the CLI writes.

A run's CSV must have exactly the rows its config asks for, the config's
`n_trials` and `seed` in every row, finite values in their physical range, and,
against a reference CSV, every numeric field within MAX_DEV (the validity rule
of the project's roadmap: gains may differ by at most 1e-12).
"""

from __future__ import annotations

import math

MAX_DEV = 1e-12

SIMULATE_HEADER = "sweep_value,scheme,metric,mean,stderr,n_trials,seed"
ALLOCATE_HEADER = "p,q,gamma_hat,stderr"


class OutputError(ValueError):
    "The CSV does not have the shape or values its config implies."


def parse_csv(text: str) -> dict:
    """Map each row key to (numeric values, n_trials, seed).

    simulate rows are keyed by (sweep value, scheme, metric) and carry
    (mean, stderr); allocate rows are keyed by (p, q) and carry
    (gamma_hat, stderr) with no n_trials or seed column.
    """
    lines = text.splitlines()
    if not lines:
        raise OutputError("empty CSV")
    header, body = lines[0], lines[1:]
    rows = {}
    for line in body:
        fields = line.split(",")
        try:
            if header == SIMULATE_HEADER and len(fields) == 7:
                key = (float(fields[0]), fields[1], fields[2])
                row = ((float(fields[3]), float(fields[4])), int(fields[5]), int(fields[6]))
            elif header == ALLOCATE_HEADER and len(fields) == 4:
                key = (float(fields[0]), float(fields[1]))
                row = ((float(fields[2]), float(fields[3])), None, None)
            else:
                raise OutputError(f"unexpected header or row {line!r}")
        except ValueError as exc:
            raise OutputError(f"bad row {line!r}: {exc}") from None
        if key in rows:
            raise OutputError(f"duplicate row key {key}")
        rows[key] = row
    return rows


def check_run(text: str, keys: set, n_trials, seed, upper: float | None) -> None:
    """Raise OutputError unless the CSV matches its config and its values are plausible.

    `upper` bounds the means from above (1 for gains and correlations, None
    for rates); every mean and standard error must be finite and >= 0.
    """
    rows = parse_csv(text)
    if set(rows) != keys:
        raise OutputError(f"row keys differ: missing {sorted(keys - set(rows))[:3]}, "
                          f"extra {sorted(set(rows) - keys)[:3]}")
    for key, ((mean, stderr), trials, row_seed) in rows.items():
        if trials is not None and (trials, row_seed) != (n_trials, seed):
            raise OutputError(f"row {key}: n_trials/seed {trials}/{row_seed}, "
                              f"expected {n_trials}/{seed}")
        if not (math.isfinite(mean) and math.isfinite(stderr) and mean >= 0 and stderr >= 0):
            raise OutputError(f"row {key}: mean {mean!r}, stderr {stderr!r}")
        if upper is not None and mean > upper + MAX_DEV:
            raise OutputError(f"row {key}: mean {mean!r} above {upper}")


def max_deviation(reference: str, text: str) -> float:
    """Largest absolute difference of any numeric field against the reference.

    Raises OutputError when the row keys, n_trials or seed differ.
    """
    ref, got = parse_csv(reference), parse_csv(text)
    if set(ref) != set(got):
        raise OutputError("row keys differ from the reference")
    dev = 0.0
    for key, (values, trials, row_seed) in ref.items():
        got_values, got_trials, got_seed = got[key]
        if (got_trials, got_seed) != (trials, row_seed):
            raise OutputError(f"row {key}: n_trials/seed differ from the reference")
        for a, b in zip(values, got_values):
            d = abs(a - b)
            dev = max(dev, d if d == d else math.inf)
    return dev
