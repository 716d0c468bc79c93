"""Session hooks shared by every test module."""

import warnings

import pytest


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # When a property test fails, hypothesis's plugin imports its patch writer
    # while building the report, and that import of libcst warns
    # DeprecationWarning (mypy_extensions' TypedDict).  Under -W error pluggy
    # re-raises it from the plugin's teardown and the session ends with
    # INTERNALERROR instead of reporting the failure.  Ignore the warning only
    # while the report is built, so a test's own deprecations still fail it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield
