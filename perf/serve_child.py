"""The HTTP server under test, run as a child process of the benchmark.

``python perf/serve_child.py <journal_path>`` builds the production-shaped
stack (``build_server(journal_path=..., max_workers=2)``, everything else at
its default), prints ``{"port": N}`` on stdout once it accepts connections,
serves until its stdin reaches end-of-file, then shuts down and prints
``{"ru_maxrss_kb": N}`` — its own peak resident set, which the benchmark
reports as the ``serve_*`` workloads' ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import resource
import sys

from checkout import use_checkout_source


def main() -> None:
    use_checkout_source()
    from repro.service.server import ServerThread, build_server

    server = build_server(journal_path=sys.argv[1], max_workers=2)
    thread = ServerThread(server)
    _host, port = thread.start()
    try:
        print(json.dumps({"port": port}), flush=True)
        sys.stdin.read()
    finally:
        thread.stop()
        server.service.shutdown(wait=True, drain_timeout=5.0)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ru_maxrss_kb": peak_kb}), flush=True)


if __name__ == "__main__":
    main()
