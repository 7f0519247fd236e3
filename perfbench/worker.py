"""One workload run in a fresh interpreter; ``run.py`` starts it.

Usage: ``worker.py WORKLOAD SEED OPS TRACE RESULT_PATH [--setup-only]``.

Set-up (``import carentropy`` plus ``build_context(n)``) is timed first, so
the package and numpy are imported here for the first time.  Then ``OPS``
ops run one after another, each timed on its own and checked after its
timer stops.  With ``TRACE`` = 1 the package's public functions are wrapped
in spans before the first op.  The result is written as JSON to
``RESULT_PATH``; spans go next to it.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    workload, seed, ops, trace, result_path = argv[:5]
    seed, ops, trace = int(seed), int(ops), trace == "1"
    setup_only = "--setup-only" in argv[5:]
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import carentropy
    t_import = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(carentropy.__file__)) != os.path.join(SRC, "carentropy"):
        raise RuntimeError(f"carentropy imported from {carentropy.__file__}, not {SRC}")

    import numpy as np

    import workloads

    scratch = os.path.dirname(os.path.abspath(result_path))
    wl = workloads.WORKLOADS[workload](scratch)
    t0 = time.perf_counter()
    ctx = carentropy.build_context(wl.sites)
    setup_s = t_import + time.perf_counter() - t0
    if setup_only:
        return _write(result_path, {"setup_s": setup_s})

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    children = np.random.SeedSequence(seed).spawn(ops)
    inputs = [wl.draw(np.random.default_rng(child), i) for i, child in enumerate(children)]
    latencies = []
    failures: dict[int, str] = {}
    kept = []
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.run(ctx, inp)
        except Exception:
            latencies.append(time.perf_counter() - t0)
            failures[i] = traceback.format_exc(limit=3)
            continue
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False  # checks are not part of the op
        try:
            problems = wl.check(inp, out)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if tracer is not None:
            tracer.active = True
        if problems:
            failures[i] = "; ".join(problems)
        elif hasattr(wl, "cross_check") and len(kept) < workloads.ORACLE_STATES:
            kept.append((i, out))
    wall_s = sum(latencies)  # the ops alone; checks run outside their timers
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops,
        "env": environment(np),
    }
    if tracer is not None:
        tracer.op = -1
        result["layers"] = {k: list(v) for k, v in spans.layer_metrics(tracer).items()}
        spans_path = os.path.splitext(result_path)[0] + ".spans.jsonl"
        tracer.write(spans_path)
        result["spans_path"] = spans_path
    else:
        # Untimed: a few campaign states against the independent oracle.
        for i, out in kept:
            problems = wl.cross_check(out)
            if problems:
                failures[i] = "oracle: " + "; ".join(problems)
        result["oracle_checked"] = len(kept)
    result["failed"] = len(failures)
    result["failures"] = [f"op {i}: {text}" for i, text in sorted(failures.items())]
    return _write(result_path, result)


def environment(np) -> dict:
    """Interpreter, numpy and BLAS of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, or None if unknown."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _write(path: str, payload: dict) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
