"""Session hooks: the ``python -O`` rerun starts once, beside the suite.

``test_optimize_mode.py::test_suites_pass_under_python_O`` reruns several
suites with assert statements stripped, in a subprocess.  When that test is
selected, the subprocess starts as soon as collection ends, so it runs on a
second core while the rest of the suite runs here; the test then waits for
it and checks its output.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
OPTIMIZE_TEST = "tests/test_optimize_mode.py::test_suites_pass_under_python_O"
OPTIMIZE_SUITES = (
    "tests/test_two_step.py", "tests/test_gallery.py", "tests/test_bvm.py",
    "tests/test_semigen.py", "tests/test_workspace_cli.py", "tests/test_free_algebra.py",
    "tests/test_iteration.py", "tests/test_optimize_mode.py", "tests/test_ledgers.py",
    "tests/test_finite_cba.py", "tests/test_morphisms.py", "tests/test_poset_completion.py",
)
_RUN = pytest.StashKey[subprocess.Popen]()


def python_O_run(config) -> subprocess.Popen:
    """The session's one ``python -O`` rerun, started on first request."""
    if _RUN not in config.stash:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        config.stash[_RUN] = subprocess.Popen(
            [
                sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                *OPTIMIZE_SUITES, "--deselect", OPTIMIZE_TEST,
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    return config.stash[_RUN]


@pytest.fixture
def python_O_output(pytestconfig):
    """(returncode, stdout, stderr) of the session's ``python -O`` rerun."""
    run = python_O_run(pytestconfig)
    stdout, stderr = run.communicate(timeout=600)
    return run.returncode, stdout, stderr


def pytest_collection_finish(session):
    if any(item.nodeid.endswith(OPTIMIZE_TEST.split("/")[-1]) for item in session.items):
        python_O_run(session.config)


def pytest_sessionfinish(session):
    run = session.config.stash.get(_RUN, None)
    if run is not None and run.poll() is None:  # the test never waited for it
        run.kill()
        run.communicate()
