"""Golden outputs: the sha256 of every default output, pinned.

The CLI runs in-process, as the benchmark's reproduce workload runs it, at
the shipped config's seed and at one other seed. Each written file and the
indented ``name: value`` lines printed with it are hashed and compared with
the digests stored here, and one full ``dense_map`` row of ``run_fig6`` is
pinned the same way. A change that moves an output byte on purpose updates
these digests in the same diff and names every moved file.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from qfdc.cli import main
from qfdc.experiment import run_fig6

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "default.json")
OTHER_SEED = 7

#: (output file, argv without --out) of the reproduce sequence; calibration
#: does not depend on the seed, so it runs at the shipped config only
_CALIBRATE = ("calibration.json", ["calibrate", CONFIG])
_RUNS = [(f"{s}.csv", ["run", s, CONFIG]) for s in ("fig4a", "fig4b", "fig5", "fig6")]
_RUNS += [("fig5_control.csv", ["run", "fig5", CONFIG, "--no-interferometer"])]

#: name -> (sha256 of the file, sha256 of the printed indented lines)
GOLDEN = {
    "default": {
        "calibration.json": (
            "63547c168d784ef3a771625bda7d695953a6d56b9d8600cbd0dd6012bee978da",
            "75722467cfa2ddc8d1b3ddea6fc8ddedea8fa14cff044d3e6885f202926d84b2",
        ),
        "fig4a.csv": (
            "a5adb9afb4b8e6a55b2e0e82d241a88c602d1b873b596bdbaec2d94820b85e3c",
            "fc3dc3973450ff0bd1de652ae01afab7925da8db7df61161fac8f3f941915a24",
        ),
        "fig4b.csv": (
            "51717f1f7ee7e4e044d2340b476077c6da269af32b52f14bd401e966706959d8",
            "ee7faadff6dc0eb4ceb5fad4faf76f29f8a6606d2d5e15e07d5830908a023351",
        ),
        "fig5.csv": (
            "b5517fa8d1d8ee83fa94f81eb5e13ddd17e9737791b1db5237048b40ba23fd9d",
            "1a47e7bfd5656d7db1bf2c7ebc7b61722568aabdcf28d7631f0f6a5b56b0dd6e",
        ),
        "fig6.csv": (
            "854f626899cd11fce7334e2fdb38cec9a90e9c2f90864695563020d12df23a9e",
            "37def77c30b62c3bd8b77f9d81c2228ebf88c0306da8fae4d892713072e6e807",
        ),
        "fig5_control.csv": (
            "ad7e27306a7d16acd393675ba4ac04955ee915cd0374967c5c3a8c6dbc18bcd7",
            "4d1d95d22bcb7a7d3c549af5e824783d2fe9139c47d1d329a4bea12052a274ab",
        ),
    },
    f"seed{OTHER_SEED}": {
        "fig4a.csv": (
            "f87a253ef9004e3c3798763b724e05c2bf39395eadf0df99888a7727d50431cf",
            "2696da61283edc68466bce6a7a272ff3a8b766682a33c75d2c2d85f9c165e902",
        ),
        "fig4b.csv": (
            "675e2ab5262c737657c9d9b1eaa4b6149aeabb5cd4a2212ff4780ba0feb8d48d",
            "5ca05a1408af75233e79d87b3898b6922b9cdc550b9204618a13389f6fff9604",
        ),
        "fig5.csv": (
            "b4548a3c45319d1d6425ee66cfbea97dbf1c98ca1ae654b69a91825b874fe17b",
            "03d7c2199f422c57d2044101001738f02f8bb798e81b893a345ebb6ce8178ffa",
        ),
        "fig6.csv": (
            "b23b81f4d8480a6c2b11c6a45f6bc835c78948be7ec1d094a30aa6dc2a272fe3",
            "37def77c30b62c3bd8b77f9d81c2228ebf88c0306da8fae4d892713072e6e807",
        ),
        "fig5_control.csv": (
            "4e149c194a273f1d1166bf863276a95457b27b7b792bd760838968639b517dfa",
            "ebb581b9a98faa37b0aedd08744813594e7d94f3c4773f738412351ba6c4717c",
        ),
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every golden output: run -> name -> (file digest, printed-lines digest)."""
    steps = {
        "default": [_CALIBRATE, *_RUNS],
        f"seed{OTHER_SEED}": [(name, argv + ["--seed", str(OTHER_SEED)]) for name, argv in _RUNS],
    }
    digests = {}
    for run, run_steps in steps.items():
        out_dir = tmp_path_factory.mktemp(run)
        digests[run] = {}
        for name, argv in run_steps:
            out = out_dir / name
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv + ["--out", str(out)])
            assert code == 0, stdout.getvalue()
            # the indented lines carry the values; the first names the path
            lines = [line for line in stdout.getvalue().splitlines() if line.startswith("  ")]
            digests[run][name] = (_sha256(out.read_bytes()),
                                  _sha256("\n".join(lines).encode()))
    return digests


@pytest.mark.parametrize("run, name", [(run, name) for run, names in GOLDEN.items()
                                       for name in names])
def test_output_is_golden(outputs, run, name):
    assert outputs[run][name] == GOLDEN[run][name]


#: one dense_map row: bench/run.py's mu grid, phases and gates at its lowest pump power
_MAP_MU = [0.01 * 4500.0 ** (k / 31) for k in range(32)]
_MAP_ROW_SHA256 = "2ab5e032c8cd30e094fdf3ef7cf8add274ae9b2a19427374f26b8da795e832cc"


def test_dense_map_row_is_golden(chain):
    scan = run_fig6(chain.at_pump_power(0.012), _MAP_MU, 16, 4_000_000, 20260810)
    values = [v for col in scan.columns.values() for v in col]
    values.append(scan.fit["smallest_detectable_mu"])
    # plain floats, so repr(scan) and the CSVs read the same as the columns
    assert all(type(v) is float for v in values)
    digest = _sha256(" ".join([*scan.columns, *(v.hex() for v in values)]).encode())
    assert digest == _MAP_ROW_SHA256
