"""Guards for what lives outside the tier-1 suite but depends on ``src/``.

The serving benchmark (``perfbench/``) wraps named functions of the
program to time each layer; a rename or deletion here would otherwise
break only the traced benchmark run, and silently.  The publish test
pins that those wrappers actually sit on the path they time.  The
import checks keep the serving process free of ``multiprocessing`` and
of every module only the CLI, ops tools or datasets use.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.ledger import SERVER_SPANS, SETUP_SPANS  # noqa: E402


@pytest.mark.parametrize(
    "module_name, attribute",
    [(module, attribute) for module, attribute, _, _ in SERVER_SPANS + SETUP_SPANS],
)
def test_benchmark_span_target_resolves(module_name, attribute):
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), (module_name, attribute)


def test_server_import_leaves_out_multiprocessing():
    probe = (
        "import sys, repro.server.service; "
        "sys.exit('multiprocessing' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()


#: Modules a serving process must not load: the gateway (loaded only by
#: the processes that start one) and ops- or benchmark-only tools.
NOT_SERVED = (
    "repro.cluster.gateway",
    "repro.obs.http",
    "repro.obs.dashboard",
    "http.server",
    "repro.datasets.real",
    "repro.skipindex.variants",
    "repro.server.client",
)


def _fresh_interpreter(probe, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return subprocess.run(
        [sys.executable, *flags, "-c", probe], capture_output=True, cwd=ROOT, env=env
    )


def test_serving_process_imports_only_the_serve_path():
    # perfbench/serving.py is the serving process; importing it imports
    # exactly what it does.
    probe = (
        "import sys, perfbench.serving; "
        "print(','.join(m for m in %r if m in sys.modules))" % (NOT_SERVED,)
    )
    result = _fresh_interpreter(probe)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().strip() == ""


def test_cached_native_library_loads_without_build_imports():
    from repro.compute.native import load_library

    if load_library() is None:
        pytest.skip("native kernels unavailable")
    # The library is cached now.  -S keeps site hooks, which may import
    # these modules themselves, out of the probe.
    probe = (
        "import sys; from repro.compute.native import load_library; "
        "assert load_library() is not None; "
        "print(','.join(m for m in ('subprocess', 'shutil', 'tempfile') "
        "if m in sys.modules))"
    )
    result = _fresh_interpreter(probe, "-S")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().strip() == ""


@pytest.mark.parametrize("persistent", [False, True], ids=["memory", "log"])
def test_publish_parses_through_the_benchmark_parse_span(
    monkeypatch, tmp_path, persistent
):
    # SETUP_SPANS times publish-time parsing by wrapping the module
    # global it names; a publish path that parsed any other way would
    # leave that span silently at zero.
    from repro.engine import SecureStation
    from repro.store import LogStore

    module_name, attribute, _name, _flags = SETUP_SPANS[0]
    owner = importlib.import_module(module_name)
    original = getattr(owner, attribute)
    calls = []

    def counting(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(owner, attribute, counting)
    store = LogStore(str(tmp_path)) if persistent else None
    with SecureStation(store=store) as station:
        station.publish("doc", "<a><b>x</b></a>")
    assert calls == ["<a><b>x</b></a>"]


def test_ledger_wrappers_installed_after_start_see_a_query():
    # The traced benchmark wraps the frame handlers on their classes and
    # the frame builders on the service module *after* the servers are
    # built.  A server that bound its handlers or builders at
    # construction would bypass the wrappers, and the traced run would
    # lose its request roots without failing.
    from perfbench.ledger import Ledger
    from repro.cluster.topology import hospital_cluster
    from repro.server.client import RemoteSession
    from repro.server.service import ServerThread, StationServer, hospital_station

    wanted = (
        "StationServer._on_query",
        "ClusterGateway._on_query",
        "json_frame",
        "encode_frame_parts",
    )
    # Each wrapper records under its own attribute name.
    targets = [
        (module, attribute, attribute, flags)
        for module, attribute, _name, flags in SERVER_SPANS
        if attribute in wanted
    ]
    assert sorted(target[1] for target in targets) == sorted(wanted)
    station, _subjects = hospital_station(folders=1)
    thread = ServerThread(StationServer(station))
    cluster, _documents, _subjects = hospital_cluster(
        backends=2, replicas=1, documents=1, folders=1
    )
    ledger = Ledger()
    try:
        address = thread.start()
        ledger.install(targets)
        for host, port in (address, cluster.gateway_address):
            with RemoteSession(host, port, "secretary") as session:
                assert session.evaluate("hospital").data
    finally:
        ledger.uninstall()
        thread.stop()
        cluster.stop()
    assert set(wanted) <= set(ledger.totals())
