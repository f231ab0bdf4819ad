"""The package root: public names resolve on first use, so importing one
submodule loads only what that submodule imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spheremix

# Runs in a new interpreter, since this one has already imported every
# submodule. Records what `import spheremix.storage` loads, then binds
# the root's names with a star import and compares each with its
# submodule's own object.
PROBE = """
import importlib, json, sys
import spheremix.storage
loaded = sorted(sys.modules)
from spheremix import *
home = spheremix._HOME
stray = [n for n in spheremix.__all__
         if globals()[n] is not getattr(importlib.import_module("spheremix." + home[n]), n)]
try:
    spheremix.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"loaded": loaded, "all": spheremix.__all__, "stray": stray,
                  "unknown": unknown}))
"""


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ)
    src = str(Path(spheremix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_storage_loads_no_other_stage(probe):
    assert "spheremix.storage" in probe["loaded"]
    unwanted = {"spheremix.baselines", "spheremix.synth", "spheremix.inference",
                "spheremix.cli", "scipy.optimize"}
    assert unwanted.isdisjoint(probe["loaded"])


def test_star_import_binds_each_submodule_object(probe):
    assert len(probe["all"]) == len(set(probe["all"])) > 0
    assert probe["stray"] == []


def test_unknown_name_raises_attribute_error(probe):
    assert probe["unknown"] == "AttributeError"
