"""One benchmark job: run the zipcalc CLI in this fresh interpreter and write
its timestamps (and, when traced, its spans and counters) to a JSON file.

    python3 perfbench/runner.py <timing.json> <mode> <zipcalc CLI arguments...>

mode is `plain` (time only), `traced` (install perfbench/tracer.py first) or
`setup` (stop once the datum exists).  The datum exists when
`zipcalc.cli.load_job` returns, or `zipcalc.cli.build_small_zoo` for the zoo
command.  Clock readings are `time.perf_counter`, which is system-wide
monotonic on Linux, so the parent can subtract its spawn time from them.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _mark_datum(fn, marks):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.setdefault("datum", time.perf_counter())
        return result

    return wrapper


def main() -> int:
    timing_path, mode, cli_args = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    record = {"started": STARTED, "mode": mode}
    recorder = None
    try:
        record["import_start"] = time.perf_counter()
        import zipcalc.cli as cli

        record["import_end"] = time.perf_counter()
        if mode == "traced":
            import tracer

            recorder = tracer.Recorder()
            tracer.install(recorder)
        marks = {}
        for name in ("load_job", "build_small_zoo"):
            if hasattr(cli, name):
                setattr(cli, name, _mark_datum(getattr(cli, name), marks))
        try:
            if mode == "setup":
                args = cli.build_parser().parse_args(cli_args)
                if args.config is not None:
                    cli.load_job(args.config)
                else:
                    cli.build_small_zoo()
                code = 0
            else:
                code = cli.main(cli_args)
        finally:
            record["datum"] = marks.get("datum")
        return code
    finally:
        record["end"] = time.perf_counter()
        if recorder is not None:
            record.update(
                spans=recorder.spans,
                counts=recorder.counts,
                calls=recorder.call_counts(),
                maxima=recorder.maxima,
                missing=recorder.missing,
                failed_descriptors=sorted(recorder.failed_descriptors),
            )
        timing_path.write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
