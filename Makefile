# Convenience targets for the reproduction.

.PHONY: install test lint clint test-sanitize test-faults test-asan \
	test-ubsan bench bench-paper bench-ablations bench-perf \
	bench-native examples clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ -q

lint:
	PYTHONPATH=src python -m repro.analysis --jobs 2

clint:
	PYTHONPATH=src python -m repro.analysis --clint

# Sanitizer legs: rebuild every native kernel under an instrumented
# profile (cache-keyed separately from the -O3 builds) and run the
# bit-identity suites plus the partitioner suites, which drive the
# whole-bisection kernel; any sanitizer report fails the leg with its
# SUMMARY line (scripts/native_sanitize.sh).
PARTITION_TESTS = tests/test_partition_multilevel.py \
	tests/test_partition_properties.py \
	tests/test_partition_matching_coarsen.py

test-asan:
	sh scripts/native_sanitize.sh asan -x -q tests/test_native_kernels.py \
		$(PARTITION_TESTS)

test-ubsan:
	sh scripts/native_sanitize.sh ubsan -x -q tests/test_native_kernels.py \
		$(PARTITION_TESTS)

test-sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=src python -m pytest -x -q \
		tests/test_engine_equivalence.py tests/test_apps_equivalence.py \
		tests/test_simulator_batch.py tests/test_analysis_sanitize.py

test-faults:
	REPRO_FAULTS="worker-crash:p=0.2:seed=1" REPRO_SANITIZE=1 \
		PYTHONPATH=src python -m pytest -x -q \
		tests/test_bench_pool.py tests/test_ordering_store.py \
		tests/test_content_store.py tests/test_resilience_supervisor.py \
		tests/test_resilience_faults.py tests/test_resilience_journal.py
	# degradation-ladder suite: each test pins its own REPRO_FAULTS
	# (an ambient disk-full would break the clean-write assertions)
	PYTHONPATH=src python -m pytest -x -q tests/test_resilience_degrade.py
	sh scripts/chaos_resume_check.sh
	sh scripts/degrade_grid_check.sh

bench:
	pytest benchmarks/ --benchmark-only -q

bench-paper:
	python -m repro.bench

bench-perf:
	PYTHONPATH=src python -m repro.bench.perf --check
	PYTHONPATH=src python -m repro.bench.perf --orderings --check
	PYTHONPATH=src python -m repro.bench.perf --apps --check
	PYTHONPATH=src python -m repro.bench.perf --ingest --check

bench-native:
	PYTHONPATH=src python -m repro.bench --native-info
	PYTHONPATH=src python -m pytest -x -q tests/test_native_kernels.py \
		tests/test_graph_shm.py
	REPRO_NO_NATIVE=1 PYTHONPATH=src python -m pytest -x -q \
		tests/test_native_kernels.py

bench-ablations:
	python -m repro.bench ablation_gorder_window ablation_hub_cutoff \
		ablation_metis_part_order ablation_cache_geometry \
		ablation_minloga ablation_community_order ablation_prefetch \
		ext_kernels ext_packing ext_hybrid ext_minla

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
