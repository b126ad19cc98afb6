"""Golden outputs: sha256 digests of high-order series and Riordan outputs.

The digests pin the exact bytes, so a change of representation or kernel
inside the series layer cannot move a single coefficient or its rendering.
Each case runs in a few tens of milliseconds.
"""

import hashlib

import pytest

from whitney import cli
from whitney.qformat import rat_str
from whitney.riordan import whitney2_array


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _render(rows):
    return "".join(",".join(rat_str(v) for v in row) + "\n" for row in rows)


SERIES_GOLDEN = [
    (("whitney1-column", "--m", "2", "--r", "3", "--k", "3", "--order", "145"),
     "aea3d3073d2d5dc17904669a7172a6dd8453c332a32ca2b4382c1cc7e8cbeb55"),
    (("whitney2-column", "--m", "2", "--r", "3", "--k", "3", "--order", "145"),
     "7c813a9303f1a43bb3eaf3accf4d35dd01054b758b7ac744b8ea7a95a41a86ab"),
    (("bernoulli-numbers", "--order", "250"),
     "67e13c3358bad458be6e8dc080d5eb41ae57e8461cca69851feb5fe71d18bc3d"),
    (("dowling-egf", "--m", "3", "--r", "2", "--u", "2", "--order", "250"),
     "7fb0197b50ec5ec9326c969d1f39aa2cfa2dd417624160ef849a69e82df31f9c"),
    (("cauchy1", "--order", "125"),
     "48220e93cd92fdcef3d6b231d8d35ccf5d5a1cbb24784e40f326cb7d0077e654"),
]


@pytest.mark.parametrize("argv, digest", SERIES_GOLDEN, ids=[a[0] for a, _ in SERIES_GOLDEN])
def test_series_output_is_golden(capsys, argv, digest):
    assert cli.main(["series", *argv]) == 0
    assert _sha(capsys.readouterr().out) == digest


def test_whitney2_array_inverse_and_a_sequence_are_golden():
    arr = whitney2_array(2, 3, 37)
    assert _sha(_render(arr.inverse().rows())) == "5af0c94f9c5ec796cf75e27d7a9646e18ac1a9eb5c48729eee63d9b35af5b022"
    assert _sha(_render([arr.a_sequence()])) == "8cbcf493f6737dc64a52db69af7d2ac176342c7cdfa6a8b366b41d7fe0a901d1"
