#!/usr/bin/env python3
"""Compare two haarlab output directories number by number.

Reads report.json (without its timestamp), every CSV table and
artifact.json under OLD and NEW, subdirectories included, and compares
each number by float.hex, so 0.0 and -0.0 differ and NaN matches NaN.
Prints one line per field: the largest
absolute and relative drift over its values, "-" where a field only
differs in text or shape.  A field is a file name and a path in it;
list items are labelled by their "name" key, or [] for all items, so
one line covers a table column or a check detail in every directory.
Fields are compared by name: the k-th value of a field in OLD is paired
with its k-th value in NEW, so a report that gains or loses a detail
still has every shared number compared.  The unpaired values get lines
of their own: "(only in old)", "(only in new)" or "(count differs)".

Exit codes: 0 identical, 1 any difference, 2 usage error.
"""
import argparse
import csv
import json
import math
import os
import sys
from collections import defaultdict

FILES = ("report.json", "artifact.json")


def output_files(root):
    """Relative paths of the compared files under root."""
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name in FILES or name.endswith(".csv"):
                out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def leaves(obj, path=""):
    """(field, value) for every scalar in a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for item in obj:
            label = item.get("name") if isinstance(item, dict) else None
            yield from leaves(item, f"{path}[{label if isinstance(label, str) else ''}]")
    else:
        yield path, obj


def read(path):
    """The file's values as a list of (field, value), in file order."""
    name = os.path.basename(path)
    if name.endswith(".csv"):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        return [(f"{name}:header", tuple(header))] + [
            (f"{name}:{col}", _number(cell)) for row in rows for col, cell in zip(header, row)]
    with open(path) as fh:
        obj = json.load(fh)
    if name == "report.json":
        obj.pop("timestamp", None)
    return [(f"{name}:{field}", value) for field, value in leaves(obj)]


def by_field(values):
    """{field: its values in file order} from read's (field, value) list."""
    out = defaultdict(list)
    for field, value in values:
        out[field].append(value)
    return out


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def drift(a, b):
    """(absolute, relative) difference of two numbers with different bits."""
    d = abs(float(a) - float(b))
    scale = max(abs(float(a)), abs(float(b)))
    return d, (d / scale if scale > 0 and math.isfinite(scale) else math.nan)


def compare(old_root, new_root):
    """{field: [values compared, values differing, max abs, max rel, text or shape differs]}"""
    fields = defaultdict(lambda: [0, 0, 0.0, 0.0, False])
    for rel in sorted(output_files(old_root) | output_files(new_root)):
        sides = [os.path.join(root, rel) for root in (old_root, new_root)]
        if not all(os.path.isfile(p) for p in sides):
            fields[f"{os.path.basename(rel)} ({rel} missing on one side)"][4] = True
            continue
        old, new = (by_field(read(p)) for p in sides)
        for field in sorted(old.keys() | new.keys()):
            a_values, b_values = old.get(field, []), new.get(field, [])
            unpaired = abs(len(a_values) - len(b_values))
            if unpaired:
                side = ("only in new" if not a_values else "only in old" if not b_values
                        else "count differs")
                stat = fields[f"{field} ({side})"]
                stat[0] += unpaired
                stat[1] += unpaired
                stat[4] = True
            for a, b in zip(a_values, b_values):
                stat = fields[field]
                stat[0] += 1
                if is_number(a) and is_number(b):
                    if float(a).hex() == float(b).hex():
                        continue
                    stat[1] += 1
                    d, rel_d = drift(a, b)
                    stat[2] = max(stat[2], d) if not math.isnan(d) else d
                    stat[3] = max(stat[3], rel_d) if not math.isnan(rel_d) else rel_d
                elif a != b:
                    stat[1] += 1
                    stat[4] = True
    return fields


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old", help="output directory of the reference run")
    p.add_argument("new", help="output directory of the run to check")
    args = p.parse_args(argv)
    for root in (args.old, args.new):
        if not os.path.isdir(root):
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    fields = compare(args.old, args.new)
    if not fields:
        print(f"error: no report.json, CSV or artifact.json under {args.old} or {args.new}",
              file=sys.stderr)
        return 2
    print(f"{'field':60s} {'values':>7s} {'differ':>7s} {'max_abs':>10s} {'max_rel':>10s}")
    for field, (n, bad, d, rel_d, text) in sorted(fields.items()):
        cols = ("-", "-") if text else (f"{d:.3g}", f"{rel_d:.3g}")
        print(f"{field:60s} {n:7d} {bad:7d} {cols[0]:>10s} {cols[1]:>10s}")
    differing = sum(1 for n, bad, *_, text in fields.values() if bad or text)
    print(f"{differing} of {len(fields)} fields differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
