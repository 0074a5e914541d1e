# Convenience targets for the repro library.

PYTHON ?= python
TRIALS ?= 1024
JOBS ?=

.PHONY: install test bench bench-smoke bench-gates cache-smoke vec-smoke fabric-smoke profile figures lint lint-clean examples examples-check serve-smoke serve-pool-smoke all

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end benchmark's workloads at tiny sizes: every correctness
# gate (golden digests, paired-ref identity, sweep-unit recompute,
# service reference answers), no numbers kept.
bench-smoke:
	python3 -m bench --smoke

# The full-size golden gates: two reps each of `figures` and `sweep`,
# then the figures@16 and sweep@256 golden digests, the paired-ref
# re-run and the sweep-unit recompute (about 40 s on 2 CPUs).
bench-gates:
	python3 -m bench --workloads figures,sweep --seconds 0

# Tiny sweep twice through the CLI --cache path; the second run must be
# served 100% from the store with a byte-identical report.
cache-smoke:
	PYTHONPATH=src $(PYTHON) scripts/cache_smoke.py

# Vectorized-tier smoke: REPRO_VEC=1 CLI report byte-identical to the
# --engine paired-ref reference, the NumPy-absent fallback
# byte-identical too, and the batched stage pipeline over its smoke
# speedup floor.
vec-smoke:
	PYTHONPATH=src $(PYTHON) scripts/vec_smoke.py

# Chaos smoke of the distributed sweep fabric: a coordinator computing
# with 2 spawned workers (--workers 3), one SIGKILLed while holding a
# lease, plus a journal-chaos leg (worker killed mid-append, journal
# tail torn); every sweep must still complete bit-identical to a
# single-process run and resume for free.  A last leg replays a
# --workers 2 sweep's journal: no lease may exceed its share
# ceil(pending / (2 x 2)).
fabric-smoke:
	PYTHONPATH=src $(PYTHON) scripts/fabric_smoke.py

# cProfile hotspot tables of the trial hot path, compiled kernel vs
# string-keyed reference — where the next optimisation should go.
profile:
	PYTHONPATH=src $(PYTHON) scripts/profile_trial.py

# Static checks (pyflakes + bugbear/async classes) on the modules where
# concurrency bugs live: the service, the admission path, the store,
# the CLI.
lint:
	ruff check src/repro/service src/repro/online src/repro/store src/repro/fabric src/repro/cli src/repro/errors.py

figures:
	$(PYTHON) -m repro --all --trials $(TRIALS) --out results/ $(if $(JOBS),--jobs $(JOBS))

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

# The committed artifacts must reproduce: examples/custom_experiment.py
# writes its three files into a temporary directory, and each must equal
# its copy under artifacts/ byte for byte.
examples-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	PYTHONPATH=src $(PYTHON) examples/custom_experiment.py "$$tmp" > /dev/null && \
	for f in ccr.json taskgraph.svg schedule.svg; do \
		cmp "$$tmp/$$f" "artifacts/$$f" || exit 1; \
	done && echo "artifacts/ reproduces"

serve-smoke:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

# serve-smoke plus the pooled-topology leg: asyncio front end + 2
# pre-forked workers, keep-alive pipelining, one forced 429, bounded
# drain.
serve-pool-smoke:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py --workers 2

all: test bench
