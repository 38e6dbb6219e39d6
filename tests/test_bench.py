"""The benchmark reaches the library through names it resolves itself:
`bench/tracer.py` wraps functions by module and name, and
`bench/workloads.py` calls them and checks their answers against frozen
values.  This loads both by file path and runs them once."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_names_resolve_and_workloads_pass():
    workloads = load("workloads").WORKLOADS  # imports every peribrauer module
    tracer = load("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for name, workload in workloads.items():
        assert workload.check(workload.run(workload.inputs(1))) == 0, name
