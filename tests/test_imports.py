"""Importing the package loads no third-party module that pyproject.toml
does not declare, and no hash library: a device or server process pays
in memory and start-up time for every module it imports, so a new one
must be a stated dependency. The handshake compares config blocks, not
digests, so the package needs no hash. (numpy.random still loads
`hashlib`, through `secrets` and `hmac`, when a role first draws a
random number; that import is numpy's.) Each submodule is reachable by
its name: no re-export in the package shadows one."""

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sidetune

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]

# Lists the top-level modules the imports add, beyond those the
# interpreter's start-up already loaded (site hooks, for one).
PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import sidetune, sidetune.device, sidetune.server
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before)))
"""


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
            for dep in deps}


@pytest.fixture(scope="module")
def added():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return json.loads(result.stdout)


def test_the_package_imports_only_declared_third_party_modules(added):
    assert "sidetune" in added
    third_party = {name for name in added
                   if name != "sidetune" and name not in sys.stdlib_module_names}
    assert third_party <= declared_dependencies(), (
        f"undeclared imports: {sorted(third_party - declared_dependencies())}")


def test_neither_role_imports_a_hash_library(added):
    assert {"hashlib", "_hashlib"}.isdisjoint(added)


def test_each_submodule_is_the_package_attribute_of_its_name():
    # a re-export under a submodule's name would shadow it: `import
    # sidetune.quantize as q` would bind the function of that name
    import sidetune.quantize as q

    assert isinstance(q, types.ModuleType) and q.SCHEMES == sidetune.SCHEMES
    for name in ("backbone", "costs", "device", "kernels", "quantize", "server", "sidenet",
                 "training", "transport", "wire"):
        assert isinstance(getattr(sidetune, name), types.ModuleType), name
