#!/usr/bin/env python3
"""Turns bench_micro's google-benchmark JSON into a BENCH_*.json file.

Usage: tools/bench_json.py {train|extract|predict|simd} OUT RAW [RAW...]

train, extract and predict read one raw file. simd reads one raw file per
dispatch lane, each recorded with MEMFP_SIMD forced to that lane.
Every output records the current times, a baseline and the baseline /
current speedup, and the bench_micro context block. Keys are sorted. The
speedup table is also printed to stdout.
"""
import json
import sys

UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

# Pre-refactor single-thread wall times (ms, best of 3) measured at commit
# 2ff4ea7 with the same generators/params as the benches: 30 features,
# GBDT 30 rounds / single default classification tree.
TRAIN_BASELINE_MS = {
    "BM_GbdtTrain": {"2000": 31.28, "10000": 139.64, "50000": 994.61},
    "BM_TreeTrain": {"2000": 1.01, "10000": 7.87, "50000": 49.08},
}

# Pre-incremental wall times (ms, median) measured at commit 65df1cd with
# the same generators as the benches: BM_Extract = full-trace batch
# extraction (storm-heavy, hourly cadence, 5000 ticks); BM_FeaturesAt = 200
# successive per-DIMM serving calls (the old path deep-copied the trace and
# rebuilt an extractor per call); BM_Gemm / BM_GemmBt = dense 256x64 @ 64x64
# products before the unrolled kernels.
EXTRACT_BASELINE_MS = {
    "BM_Extract": 800.0,
    "BM_FeaturesAt": 391.0,
    "BM_Gemm": 0.617,
    "BM_GemmBt": 0.437,
}

# The predict baseline is not frozen: the *Walker benches of the same run
# walk every pointer-linked tree per row (the pre-flat-ensemble inference
# path, semantics frozen at commit 3f39d4a). Current = Model::predict_batch
# through the compiled FlatEnsemble. Both run single-threaded on identical
# inputs, so the speedup isolates the flat-layout + 64-row-block batching.
PREDICT_BENCHES = ("BM_ForestPredict", "BM_GbdtPredict")


def load(path):
    with open(path) as f:
        return json.load(f)


def timings_ms(raw, digits):
    """Benchmark name -> real time in ms, iteration runs only."""
    out = {}
    for entry in raw.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue
        scale = UNIT_TO_MS[entry.get("time_unit", "ns")]
        out[entry["name"]] = round(entry["real_time"] * scale, digits)
    return out


def by_rows(timings):
    """Splits "BM_X/rows:N" names into {"BM_X": {"N": ms}}."""
    out = {}
    for name, ms in timings.items():
        bench, _, rows = name.partition("/rows:")
        if rows:
            out.setdefault(bench, {})[rows] = ms
    return out


def speedup(baseline, current):
    """baseline / current, nested like baseline. Entries with no current
    time, and nested tables left empty by that, are dropped."""
    out = {}
    for key, base in baseline.items():
        now = current.get(key)
        if isinstance(base, dict):
            ratios = speedup(base, now or {})
            if ratios:
                out[key] = ratios
        elif now:
            out[key] = round(base / now, 2)
    return out


def report(raw, baseline_commit, baseline, current):
    return {
        "baseline_commit": baseline_commit,
        "baseline_ms": baseline,
        "context": raw.get("context", {}),
        "current_ms": current,
        "speedup": speedup(baseline, current),
    }


def train(raw):
    rows = by_rows(timings_ms(raw, 2))
    current = {b: r for b, r in rows.items() if b in TRAIN_BASELINE_MS}
    return report(raw, "2ff4ea7", TRAIN_BASELINE_MS, current)


def extract(raw):
    current = {
        name: ms
        for name, ms in timings_ms(raw, 4).items()
        if name in EXTRACT_BASELINE_MS
    }
    return report(raw, "65df1cd", EXTRACT_BASELINE_MS, current)


def predict(raw):
    rows = by_rows(timings_ms(raw, 2))
    walker = {
        b[: -len("Walker")]: r for b, r in rows.items() if b.endswith("Walker")
    }
    current = {b: r for b, r in rows.items() if b in PREDICT_BENCHES}
    return report(raw, "3f39d4a", walker, current)


def simd(raws):
    levels_ms = {}
    context = {}
    for raw in raws:
        ctx = raw.get("context", {})
        context = context or ctx
        levels_ms[ctx.get("simd_level", "unknown")] = timings_ms(raw, 4)
    scalar = levels_ms.get("scalar", {})
    return {
        "context": context,
        "cpu_features": context.get("cpu_features", ""),
        "simd_supported": context.get("simd_supported", ""),
        "levels_ms": levels_ms,
        "speedup_vs_scalar": {
            level: speedup(scalar, timings)
            for level, timings in levels_ms.items()
            if level != "scalar"
        },
    }


def main(argv):
    kinds = {"train": train, "extract": extract, "predict": predict}
    if len(argv) < 4 or argv[1] not in (*kinds, "simd"):
        sys.exit(__doc__)
    kind, out_path, raw_paths = argv[1], argv[2], argv[3:]
    if kind == "simd":
        doc = simd([load(p) for p in raw_paths])
    elif len(raw_paths) == 1:
        doc = kinds[kind](load(raw_paths[0]))
    else:
        sys.exit(f"{kind} reads exactly one raw file")
    doc.update(generated_by="tools/run_benches.sh", threads=1)
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    key = "speedup_vs_scalar" if kind == "simd" else "speedup"
    print(json.dumps(doc[key], indent=2, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)
