import warnings

import pytest
from click.testing import CliRunner

from npaft import fit
from npaft.cli import DRAWS_FILE, EXIT_INPUT, FORESTS_FILE, main
from test_engine import small_config


@pytest.fixture
def run_dir(small_data, tmp_path):
    """A fit's output directory, as ``npaft fit --keep-forests`` leaves it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        draws = fit(small_data, small_config(keep_forests=True))
    draws.save(tmp_path / DRAWS_FILE)
    draws.save_forests(tmp_path / FORESTS_FILE)
    return tmp_path


def test_pdp_with_corrupt_forests_file_exits_with_input_error(run_dir):
    forests = run_dir / FORESTS_FILE
    forests.write_bytes(forests.read_bytes()[:1000])
    result = CliRunner().invoke(main, ["pdp", str(run_dir), "data.csv", "schema.yaml",
                                       "--out", str(run_dir / "pdp"), "--covariate", "x0"])
    assert result.exit_code == EXIT_INPUT == 2
    assert FORESTS_FILE in result.output


def test_summarize_with_truncated_draws_file_exits_with_input_error(run_dir):
    draws = run_dir / DRAWS_FILE
    data = draws.read_bytes()
    draws.write_bytes(data[:len(data) // 2])
    result = CliRunner().invoke(main, ["summarize", str(run_dir),
                                       "--out", str(run_dir / "summary")])
    assert result.exit_code == EXIT_INPUT == 2
    assert DRAWS_FILE in result.output
