"""One benchmark process: run `qudittomo.cli.main` once and report timings.

Usage: python3 perfbench/runner.py RESULT_JSON T0 MODE -- [CLI ARGS...]

T0 is the `time.monotonic()` reading the parent took just before it
started this process, so the set-up time covers interpreter start,
`import qudittomo` and config resolution.  MODE is `run` (untraced) or
`trace` (with layer spans, see tracing.py).

The workload call is `cli.run_qst_compare` or `cli.run_qpt_models`; the
runner wraps both to stamp when the first one starts.  After the
command returns, the runner adds the library versions and the BLAS
thread count.  The result is written as JSON to RESULT_JSON.
"""

import json
import resource
import sys
import time
import traceback

WORKLOAD_CALLS = ("run_qst_compare", "run_qpt_models")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _versions():
    import numpy
    import scipy

    import qudittomo

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "qudittomo": qudittomo.__version__,
            "blas_threads": _blas_threads()}


def main(argv):
    out_path, t0, mode = argv[0], float(argv[1]), argv[2]
    cli_argv = argv[4:]
    result = {"mode": mode}
    try:
        from qudittomo import cli

        stamps = {}

        def stamped(fn):
            def wrapper(*args, **kwargs):
                stamps.setdefault("first_call", time.monotonic())
                return fn(*args, **kwargs)
            return wrapper

        for name in WORKLOAD_CALLS:
            setattr(cli, name, stamped(getattr(cli, name)))

        tracer = None
        if mode == "trace":
            from qudittomo import protocols, recon, sim

            import tracing
            marker = ("protocols.qst_two_level" if cli_argv[0] == "qst-compare"
                      else "protocols.qpt_two_level")
            tracer = tracing.Tracer(marker)
            tracer.install({"protocols": protocols, "sim": sim, "recon": recon})

        rc = cli.main(cli_argv)
        end = time.monotonic()
        if "first_call" not in stamps:
            raise RuntimeError(f"the command never reached a workload call "
                               f"(exit code {rc})")
        result.update(rc=rc, setup_s=stamps["first_call"] - t0,
                      wall_s=end - stamps["first_call"],
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      versions=_versions())
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
        return _finish(out_path, result, 0)
    except Exception:
        result["error"] = traceback.format_exc()
        return _finish(out_path, result, 1)


def _finish(out_path, result, code):
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
