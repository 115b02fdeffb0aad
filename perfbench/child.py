"""One benchmark run of the polarcb CLI in a fresh process.

Times set-up (importing polarcb.cli plus loading and validating the config)
separately from the run (from the end of set-up until the CLI has written its
CSV), and writes the measurements as JSON to --result.  With --trace the run
is traced: every layer binding is wrapped, the spans go to --spans if given, and the
result carries the per-layer metrics and the digest of every phase-1 index
array.  With --setup-only the process stops after set-up.

    python3 perfbench/child.py --command simulate --config run.cfg --out run.csv \
        --result run.json [--trace [--spans run.spans.jsonl] | --setup-only]

polarcb must be importable (the parent puts the checkout's src on PYTHONPATH).
"""

import argparse
import json
import resource
import time

START = time.perf_counter()


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import polarcb.cli as cli
    from polarcb.experiments import load_config

    load_config(args.config)
    setup_end = time.perf_counter()
    result = {"setup_s": setup_end - START, "polarcb_file": cli.__file__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        cpu0 = cpu_seconds()
        run_start = time.perf_counter()
        argv = [args.command, "--config", args.config, "--out", args.out]
        rc = cli.main(argv) if tracer is None else tracer.call(spans.ROOT, cli.main, argv)
        result["wall_s"] = time.perf_counter() - run_start
        result["cpu_s"] = cpu_seconds() - cpu0
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            if args.spans:
                tracer.write(args.spans)
            result["layers"] = spans.layer_metrics(tracer, spans.zgemm_peak_gflops())
            result["scan_digest"] = tracer.scan_digest.hexdigest()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
