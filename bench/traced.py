"""``python -m bench.traced <repro args>``: repro's CLI with layer shims.

Spans go to the directory named by ``BENCH_TRACE_DIR``.  Processes that
multiprocessing spawns re-import this module as ``__mp_main__``, so fabric
workers and service pool workers install the same shims before they run.
"""

import os
import sys

if __name__ in ("__main__", "__mp_main__"):
    from bench.trace import install

    _recorder = install(os.environ["BENCH_TRACE_DIR"])

if __name__ == "__main__":
    from repro.cli.main import main

    try:
        status = main(sys.argv[1:])
    finally:
        _recorder.flush()
    sys.exit(status)
