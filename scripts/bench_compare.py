#!/usr/bin/env python3
r"""Compares perfbench captures of a parent and a change, pair by pair.

    python3 scripts/bench_compare.py --parent parent/*.txt \
        --change change/*.txt [--allow-digest-fields choose_iter,answers]

Each capture is the standard output of one `perfbench/run.py` run: its
`digest workload=... seed=...` line and its last line, the JSON result.
Parent and change captures are paired by workload and seed. For every pair
whose digest lines differ, the script prints which fields differ and their
two values. It fails (exit 1) when
  * a pair's digest lines differ in a field not named by
    --allow-digest-fields (by default none is: the two programs did
    different work or gave different answers),
  * on a workload, the change's median of an end-to-end metric is worse
    than the parent's median by more than that metric's bound (a fraction
    of the parent's median) in the repository's BENCHMARK.json, or
  * on a workload, a larger share of the change's operations failed.
For every workload and metric it prints the parent's and the change's
median and quartiles, and in how many pairs the change was better.
Captures without a partner are listed and left out.
"""

import argparse
import json
import os
import statistics
import sys


def parse_capture(path):
    """Returns (workload, seed, digest line, result JSON) of one capture."""
    digest = None
    result = None
    with open(path, encoding="utf-8") as capture:
        for line in capture:
            line = line.strip()
            if line.startswith("digest "):
                digest = line
            elif line.startswith("{"):
                result = json.loads(line)
    if digest is None or result is None:
        raise ValueError(f"{path}: no digest line or no JSON result")
    fields = digest_fields(digest)
    return fields["workload"], int(fields["seed"]), digest, result


def digest_fields(digest):
    """The name=value fields of a digest line, as a dict."""
    return dict(f.split("=", 1) for f in digest.split()[1:] if "=" in f)


def load(paths):
    captures = {}
    for path in paths:
        workload, seed, digest, result = parse_capture(path)
        if (workload, seed) in captures:
            raise ValueError(f"{path}: a second capture of {workload} "
                             f"seed {seed}")
        captures[(workload, seed)] = (digest, result)
    return captures


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, metrics, out, allowed=()):
    """Prints the comparison to `out`; returns the list of failures.

    Digest fields named in `allowed` may differ within a pair."""
    failures = []
    pairs = sorted(set(parent) & set(change))
    for key in sorted(set(parent) ^ set(change)):
        side = "parent" if key in parent else "change"
        print(f"unpaired {side} capture: {key[0]} seed {key[1]}", file=out)
    for key in pairs:
        p_fields = digest_fields(parent[key][0])
        c_fields = digest_fields(change[key][0])
        differing = [f for f in dict.fromkeys([*p_fields, *c_fields])
                     if p_fields.get(f) != c_fields.get(f)]
        if not differing:
            continue
        print(f"{key[0]} seed {key[1]}: digest fields differ: "
              + ", ".join(f"{f} {p_fields.get(f)} -> {c_fields.get(f)}"
                          for f in differing), file=out)
        refused = [f for f in differing if f not in allowed]
        if refused:
            failures.append(f"{key[0]} seed {key[1]}: digests differ in "
                            f"{', '.join(refused)}")

    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        print(f"{workload}: {len(seeds)} pairs, seeds "
              f"{','.join(map(str, seeds))}", file=out)
        shares = []
        for side in (parent, change):
            results = [side[(workload, s)][1] for s in seeds]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            shares.append(failed / attempted if attempted else 0.0)
        print(f"  failed share: parent {shares[0]:.6g} change "
              f"{shares[1]:.6g}", file=out)
        if shares[1] > shares[0]:
            failures.append(f"{workload}: failed share rose from "
                            f"{shares[0]:.6g} to {shares[1]:.6g}")
        for metric in metrics:
            name = metric["name"]
            higher = metric["better"] == "higher"
            try:
                p = [parent[(workload, s)][1]["metrics"][name]["value"]
                     for s in seeds]
                c = [change[(workload, s)][1]["metrics"][name]["value"]
                     for s in seeds]
            except KeyError:
                failures.append(f"{workload}: a capture lacks {name}")
                continue
            wins = sum((cv > pv) if higher else (cv < pv)
                       for pv, cv in zip(p, c))
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            worse = (pm - cm) if higher else (cm - pm)
            rel = worse / abs(pm) if pm else (0.0 if worse <= 0 else 1.0)
            print(f"  {name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change "
                  f"{cm:.6g} [{c1:.6g}, {c3:.6g}]  change better in "
                  f"{wins}/{len(seeds)}  worse by {rel:+.4f} "
                  f"(bound {metric['bound']})", file=out)
            if rel > metric["bound"]:
                failures.append(f"{workload}: {name} median worse by "
                                f"{rel:.4f}, bound {metric['bound']}")
    if not pairs:
        failures.append("no parent/change pair to compare")
    return failures


def main(argv=None):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--allow-digest-fields", default="",
                        help="comma-separated digest fields that may "
                             "differ within a pair (default: none)")
    args = parser.parse_args(argv)
    allowed = [f for f in args.allow_digest_fields.split(",") if f]
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as spec:
        metrics = json.load(spec)["end_to_end"]
    if allowed:
        print(f"allowed to differ: digest fields {', '.join(allowed)}")
    failures = compare(load(args.parent), load(args.change), metrics,
                       sys.stdout, allowed)
    for failure in failures:
        print("FAIL " + failure)
    print("FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
