import sys

import pytest

PACKAGE = "schurcompress"

_CRITERIA: dict[str, bool] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.name.startswith("test_criterion"):
        _CRITERIA[item.name] = rep.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_CRITERIA):
        status = "PASS" if _CRITERIA[name] else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")


@pytest.fixture(autouse=True)
def _empty_package_caches():
    """Every test starts with the package's ``functools`` caches empty, as a fresh
    process has them, so no test reads a table another test built."""
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
