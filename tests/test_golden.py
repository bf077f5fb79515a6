"""Golden-fingerprint byte-identity suite for the simulator fast path.

The kernel/engine/storage fast-path work (ROADMAP item 4) is only shippable
because every sim-side output byte is pinned: these tests hash dbbench
results, serve SLO reports and critical-path blame across all seven systems
against fingerprints committed *before* the fast path landed
(``tests/golden/fingerprints.json``).  Any optimization that changes event
ordering, cost arithmetic or record encoding fails here first.

Each pinned configuration is also re-run under ``--schedule-seed`` and with
the observability hooks attached (sanitizer, zone profiler, critpath
edgelog), asserting the *same* fingerprint: the observer off-state
contract means none of them may perturb simulated results.

Refresh (only when a sim-side change is intentional)::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/test_golden.py -q
"""

import hashlib
import json
import os

import pytest

from repro.perf import zones as _perf_zones
from repro.systems import system_names
from repro.tools import dbbench, serve

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "fingerprints.json")
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: volatile keys stripped before hashing: host file paths and artifact
#: locations vary per run; everything else in a report is sim-side.
_VOLATILE = ("_file", "_files", "trace_file", "stats_files")


def _strip(obj):
    if isinstance(obj, dict):
        return {
            k: _strip(v)
            for k, v in obj.items()
            if not any(k.endswith(s) or k == s for s in _VOLATILE)
        }
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    if isinstance(obj, float):
        # 10 significant digits: float *summation order* may legally differ
        # under --schedule-seed (same-time shuffles reassociate latency
        # sums), moving the last ulp; any genuine model change moves far
        # more than the 11th digit.
        return float("%.10g" % obj)
    return obj


def fingerprint(obj) -> str:
    blob = json.dumps(_strip(obj), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _load_goldens() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH) as f:
        return json.load(f)


_RECORDED = {}


def check(name: str, fp: str) -> None:
    if UPDATE:
        _RECORDED[name] = fp
        return
    goldens = _load_goldens()
    assert name in goldens, (
        "no golden for %r: run REPRO_UPDATE_GOLDENS=1 pytest %s" % (name, __file__)
    )
    assert fp == goldens[name], (
        "%s: fingerprint %s != golden %s — sim-side output changed; the fast "
        "path must be byte-identical (or refresh goldens for an intentional "
        "model change)" % (name, fp, goldens[name])
    )


@pytest.fixture(scope="module", autouse=True)
def _write_goldens_on_update():
    yield
    if UPDATE and _RECORDED:
        goldens = _load_goldens()
        goldens.update(_RECORDED)
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as f:
            json.dump(goldens, f, indent=2, sort_keys=True)
            f.write("\n")


# -- dbbench ----------------------------------------------------------------

_DBBENCH_COMMON = ["--threads", "4", "--workers", "2", "--device", "nvme",
                   "--seed", "0", "--num", "500"]


def _dbbench_result(bench: str, extra=(), **run_kwargs) -> dict:
    argv = ["--benchmarks", bench] + _DBBENCH_COMMON + list(extra)
    args = dbbench.build_parser().parse_args(argv)
    return dbbench.run_benchmark(bench, args, **run_kwargs)


@pytest.mark.parametrize("system", system_names())
def test_dbbench_fillrandom_golden(system):
    result = _dbbench_result("fillrandom", ["--system", system])
    check("dbbench:fillrandom:%s" % system, fingerprint(result))


@pytest.mark.parametrize("system", ("p2kvs", "rocksdb"))
def test_dbbench_readrandom_golden(system):
    result = _dbbench_result("readrandom", ["--system", system])
    check("dbbench:readrandom:%s" % system, fingerprint(result))


@pytest.mark.parametrize("seed", (3, 11))
def test_dbbench_schedule_seed_invariant(seed):
    """--schedule-seed shuffles same-time delivery; results must not move."""
    result = _dbbench_result(
        "fillrandom", ["--system", "p2kvs", "--schedule-seed", str(seed)]
    )
    check("dbbench:fillrandom:p2kvs", fingerprint(result))


def test_dbbench_sanitizer_off_path():
    """The sanitizer hooks (monitor) must not change simulated results."""
    result = _dbbench_result("fillrandom", ["--system", "p2kvs", "--sanitize"])
    check("dbbench:fillrandom:p2kvs", fingerprint(result))


@pytest.mark.no_sanitize
def test_dbbench_profiler_off_path():
    """The wall-clock zone profiler must not change simulated results."""
    with _perf_zones.attach():
        result = _dbbench_result("fillrandom", ["--system", "p2kvs"])
    check("dbbench:fillrandom:p2kvs", fingerprint(result))


# -- critical-path blame ----------------------------------------------------


def _critpath_blame(extra=(), tmp_base="golden-critpath"):
    result = _dbbench_result(
        "fillrandom",
        ["--system", "p2kvs"] + list(extra),
        critpath_base=tmp_base,
    )
    return result["critpath"]


def test_critpath_blame_golden(tmp_path):
    blame = _critpath_blame(tmp_base=str(tmp_path / "cp"))
    check("critpath:fillrandom:p2kvs", fingerprint(blame))


def test_critpath_blame_schedule_seed_invariant(tmp_path):
    blame = _critpath_blame(["--schedule-seed", "5"], str(tmp_path / "cp"))
    check("critpath:fillrandom:p2kvs", fingerprint(blame))


def test_dbbench_all_observers_off_path(tmp_path):
    """Tracer, edgelog and sanitizer on one Simulator: the kernel's observed
    overlays then run both the edge and the happens-before hooks, and
    neither blame nor simulated results may move."""
    result = _dbbench_result(
        "fillrandom",
        ["--system", "p2kvs", "--sanitize"],
        critpath_base=str(tmp_path / "cp"),
    )
    check("critpath:fillrandom:p2kvs", fingerprint(result.pop("critpath")))
    result.pop("latency_attribution")
    check("dbbench:fillrandom:p2kvs", fingerprint(result))


# -- serve (sharded service plane) ------------------------------------------

_SERVE_ARGV = ["--scenario", "uniform", "--shards", "2", "--ops", "300",
               "--key-space", "200", "--seed", "42"]


def _serve_report(extra=()) -> dict:
    args = serve.build_parser().parse_args(_SERVE_ARGV + list(extra))
    return serve.run_scenario(args)


def test_serve_report_golden():
    check("serve:uniform:2shard", fingerprint(_serve_report()))


def test_serve_report_schedule_seed_invariant():
    report = _serve_report(["--schedule-seed", "9"])
    check("serve:uniform:2shard", fingerprint(report))
