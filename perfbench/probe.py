"""Set-up probe: one fresh interpreter's cold start.

Times ``import trigonal`` through ``cli.build_parser()`` and the end of
the workload's first item, which is what a CLI call pays every time.
Making the first item's input (sampling a document) is not timed.
Prints one JSON line: ``{"import_s": ..., "setup_s": ...}``.

    python3 perfbench/probe.py forward 1
"""
import sys
import time


def main(workload_name: str, seed: int) -> int:
    # The clock starts before any import the CLI needs.
    started = time.perf_counter()
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from trigonal import cli

    cli.build_parser()
    imported = time.perf_counter() - started

    import json

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, pool=1)
    first = time.perf_counter()
    output = workload.run(workload.key(0))
    item = time.perf_counter() - first
    if not workload.passed(output):
        print(f"probe: first {workload_name} item failed its check", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": imported, "setup_s": imported + item}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], int(sys.argv[2])))
