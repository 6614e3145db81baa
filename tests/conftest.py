from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    from ppagerank_ray import tune_data_context

    tune_data_context()
    yield
    ray.shutdown()


SF_TINY = "/root/testdata/sf0.001"
SF_SMALL = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def sf_tiny():
    return SF_TINY


@pytest.fixture(scope="session")
def sf_small():
    return SF_SMALL


@pytest.fixture(scope="session")
def repo_root():
    """Repository root; CLI subprocesses run from here so that
    `python -m ppagerank_ray` imports this checkout's package."""
    return REPO_ROOT


@pytest.fixture(scope="session")
def reference_test_script():
    """Text of tests/data/reference_test_script: the reference
    `test_script`'s two documented option lines, `-alpha 0.95` (power) and
    `-alpha 0.95 -alg arnoldi` (SURVEY.md §0, §5; BASELINE.md)."""
    return (REPO_ROOT / "tests" / "data" / "reference_test_script").read_text()
