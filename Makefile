# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint bench examples doc clean outputs

all: build

build:
	dune build @all

test:
	dune runtest

# Repo-invariant static analysis (doc/LINT.md): soslint's per-file rules
# R1-R7 and call-graph passes A1-A4. CI runs this on both compiler versions
# and fails on any unsuppressed hit or on a suppression-count increase
# versus tools/lint/allow_baseline.txt.
lint:
	dune build @lint

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/datacenter_bandwidth.exe
	dune exec examples/cloud_tasks.exe
	dune exec examples/router_memory.exe
	dune exec examples/trace_analysis.exe
	dune exec examples/power_capping.exe

# The captured artifacts referenced by EXPERIMENTS.md.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
