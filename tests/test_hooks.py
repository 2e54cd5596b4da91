"""Guards for what lives outside the tier-1 suite but depends on ``src/``.

The serving benchmark (``perfbench/``) wraps named functions of the
program to time each layer; a rename or deletion here would otherwise
break only the traced benchmark run, and silently.  The publish test
pins that those wrappers actually sit on the path they time.  The
import checks keep the serving process free of ``multiprocessing`` and
of every module only the CLI, ops tools or datasets use.  The caller
scan keeps ``src/`` free of definitions that only tests reach.
"""

import ast
import importlib
import os
import re
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


# ----------------------------------------------------------------------
# Every definition in src/ has a caller outside the tests
# ----------------------------------------------------------------------
#: Where a caller may live: the program, its benchmarks, the examples
#: and CI.  Test directories below them do not count.
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions kept without a non-test caller, each with its reason.
NO_CALLER_NEEDED = {
    "_Handler.do_GET": "http.server calls it per GET request",
    "_Handler.log_message": "http.server override that silences stderr",
    "decrypt_ecb_reference": "oracle the crypto tests compare decrypt_ecb to",
    "SecureStation.revoke": "the inverse of grant in the station's rights API",
    "RemoteSession.ping": "PING probe tests use to observe liveness",
    "RemoteSession.poll_notifications": "drains INVALIDATED pushes between calls",
    "FrameDecoder.pending_bytes": "probe of the decoder's buffered bytes",
    "PolicyPlan.cached_queries": "probe of the plan's compiled-query cache",
    "Node.find_all": "DOM accessor tests use to read served views",
    "Step.is_wildcard": "probe of the parsed XPath step",
    "Path.has_predicates": "probe of the parsed XPath path",
}


def _definitions():
    """Top-level functions and classes, and methods, of ``src/``."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield None, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield node.name, item.name


def _references():
    """Names used bare (or imported), and names used after a dot or in
    a string, across every caller outside the tests."""
    names, attributes = set(), set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts[1:-1]:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    attributes.update(_IDENTIFIER.findall(node.value))
    for path in (ROOT / ".github").rglob("*.yml"):
        attributes.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return names, attributes


def test_every_src_definition_has_a_non_test_caller():
    # A method counts as called when its name follows a dot or appears
    # in a string (handler tables, benchmark span targets); a top-level
    # name also when it is used bare or imported.  Dunder methods are
    # called by Python itself.
    names, attributes = _references()
    orphans = set()
    for owner, name in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        if name in attributes or (owner is None and name in names):
            continue
        orphans.add("%s.%s" % (owner, name) if owner else name)
    assert sorted(orphans - set(NO_CALLER_NEEDED)) == []
    # An entry whose definition gained a caller or went away is stale.
    assert sorted(set(NO_CALLER_NEEDED) - orphans) == []


# ----------------------------------------------------------------------
# Every exported C kernel is bound, and every binding has a kernel
# ----------------------------------------------------------------------
#: A top-level C function definition: optional ``static``, a return
#: type, the name and its opening parenthesis, at the start of a line.
_C_DEFINITION = re.compile(
    r"^(static\s+)?[A-Za-z_][\w\s\*]*?\b([A-Za-z_]\w*)\s*\(", re.MULTILINE
)


def test_every_exported_c_kernel_has_a_ctypes_binding():
    # The caller scan above sees only Python: a C function nothing binds
    # would be compiled into every build and never run.
    import inspect

    from repro.compute import native

    exported = {
        match.group(2)
        for match in _C_DEFINITION.finditer(native.C_SOURCE)
        if not match.group(1)
    }
    bound = set(re.findall(r"\blib\.(\w+)", inspect.getsource(native._build_library)))
    assert exported, "no C function definition found"
    assert sorted(exported - bound) == []
    assert sorted(bound - exported) == []
