import pytest


@pytest.fixture(scope="session")
def run_root(tmp_path_factory):
    """The log directories of the runs that ``helpers.run_cached`` trains."""
    return tmp_path_factory.mktemp("suite-runs")
