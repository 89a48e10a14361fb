"""Start-up contract, each case in a fresh interpreter.

`import xxzent` loads no numpy, so the CLI module can give its own process one
BLAS thread before numpy loads, without touching the environment of a process
that loaded numpy first or that set the thread count itself.  The process entry
freezes the import-time heap, so the collections at exit skip numpy's objects;
the library entry main() leaves the collector as it found it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xxzent

THREADS = "OPENBLAS_NUM_THREADS"


def fresh_python(code, **env):
    """Run `code` in a new interpreter importing the tree under test and return the
    JSON it prints last; `env` sets (str) or removes (None) environment variables."""
    child_env = {**os.environ, **env}
    child_env = {key: value for key, value in child_env.items() if value is not None}
    src = str(Path(xxzent.__file__).resolve().parent.parent)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, child_env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_package_import_loads_no_numpy():
    code = "import json, sys, xxzent; print(json.dumps('numpy' in sys.modules))"
    assert fresh_python(code) is False


def test_cli_import_pins_one_blas_thread():
    code = (
        "import json, os, sys, xxzent.cli\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
        f"print(json.dumps([os.environ.get({THREADS!r}), tasks]))"
    )
    setting, tasks = fresh_python(code, **{THREADS: None})
    assert setting == "1"
    assert tasks in (1, None)


def test_cli_import_keeps_a_preset_thread_count():
    code = f"import json, os, xxzent.cli; print(json.dumps(os.environ.get({THREADS!r})))"
    assert fresh_python(code, **{THREADS: "2"}) == "2"


def test_cli_import_after_numpy_leaves_the_environment_alone():
    code = (
        "import json, os, numpy\n"
        "before = dict(os.environ)\n"
        "import xxzent.cli\n"
        "print(json.dumps(dict(os.environ) == before))"
    )
    assert fresh_python(code, **{THREADS: None}) is True


@pytest.mark.parametrize("submodules_first", [False, True], ids=["lazy", "after-submodules"])
def test_package_names_are_their_submodules_objects(submodules_first):
    # A name in __all__ is the object a submodule defines, never a submodule,
    # and reads the same before and after every submodule is loaded.
    code = (
        "import importlib, json, pkgutil, types, xxzent\n"
        "def load():\n"
        "    return [importlib.import_module(f'xxzent.{info.name}')\n"
        "            for info in pkgutil.iter_modules(xxzent.__path__)]\n"
        f"modules = load() if {submodules_first} else []\n"
        "first = {name: getattr(xxzent, name) for name in xxzent.__all__}\n"
        "modules = load()\n"
        "bad = [name for name, obj in first.items()\n"
        "       if isinstance(obj, types.ModuleType) or getattr(xxzent, name) is not obj\n"
        "       or not any(vars(module).get(name) is obj for module in modules)]\n"
        "print(json.dumps([len(first), bad, isinstance(xxzent.sweep, types.ModuleType)]))"
    )
    count, bad, sweep_is_module = fresh_python(code)
    assert count > 0 and bad == []
    assert sweep_is_module


def test_library_entry_leaves_the_collector_alone():
    # tests and hosts call main() in process: freezing their heap would keep its garbage alive
    code = (
        "import gc, json, xxzent.cli\n"
        "xxzent.cli.main(['--version'])\n"
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))"
    )
    assert fresh_python(code) == [True, 0]


def test_process_entry_freezes_the_import_time_heap():
    # run as __main__, as `python -m xxzent.cli` is; numpy's objects are frozen by exit
    code = (
        "import atexit, gc, json, runpy, sys, numpy\n"
        "numpy_heap = len(gc.get_objects())\n"
        "atexit.register(lambda: print(json.dumps([gc.get_freeze_count(), numpy_heap])))\n"
        "sys.argv = ['xxzent', '--version']\n"
        "runpy.run_module('xxzent.cli', run_name='__main__')"
    )
    frozen, numpy_heap = fresh_python(code)
    assert frozen >= numpy_heap > 0
