"""Golden outputs: sha256 digests of high-order series, Riordan, table and verify outputs.

The digests pin the exact bytes, so a change of representation, kernel or
writer cannot move a single coefficient or its rendering in any of the
three formats.  Each case runs in a few tens of milliseconds.
"""

import hashlib
import re

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


OUTPUT_GOLDEN = {
    ("table", "whitney2", "--n", "210", "--m", "2", "--r", "1"): (
        "0755eba46c991ea67f5515a5547aa8f65ad676d746fdd3832a6c05dba8e80c5b",
        "45d6b6e2ec0398604853786a38632857c3a82d5b5efcf3213c3faf2fb4244f4d",
        "a4bbc510aca142a7a35cb51eeb4f404cae09b5aaef811c5a9692ac8a905e0476",
    ),
    ("table", "whitney1", "--n", "210", "--m", "2", "--r", "1"): (
        "ce4e47aa0e8132d67a987338b30c22bbf3162e7638154b9eeeb1b29389f36d26",
        "63b3ab4e161e523f7e721644b8785f79ae0a7f8f0b1ef821b2f5d320401aecf6",
        "982255d9de70216933819e74d166b2c13a38a0d3c13f45acd69c730db423fb1d",
    ),
    ("table", "mstirling1", "--n", "165", "--m", "3"): (
        "4cc5b7771122f90afcecb3ce52c60b72eb1ecce3e2c1cd94af3af35c72fe6b58",
        "32e87d62316e3dacb7ea4c7f30846966ee646928f354070965f631eb0f69af8c",
        "03f7db282f654bd5487d5ad2cef945074fe2ac513e9e784e79d9f93427d4ca24",
    ),
    ("poly", "dowling", "--n", "209", "--m", "2", "--r", "1"): (
        "371a9946acebe85627b6cee554be827837bf75b0f263cfaae720a33b17c0732c",
        "18cf280217d46400cedf37cb8e9980e7ada91d55b5d37c6153c1b19344e5d3bd",
        "82205a4d17ba0fd6fdf17e814f80a2affb3f5d8e65873e7fa6c029f472eb11a2",
    ),
    ("table", "whitney1", "--n", "8", "--m", "2", "--r", "-5/3"): (
        "0b0a16b53d6580f829ec377dd24049ec928eed9d9c0ac7fb0b72b2106c7bf0a8",
        "9d039805be9e7d3f1f7d18bd2cb8e65374f29e255b4ea1fa7eff72d7513c7f0b",
        "d1534c8a8036a623704b9099753ea9f714805142d02ad0ecf0090d4bd08cd4c4",
    ),
    ("series", "bernoulli-numbers", "--order", "250"): (
        "6936fa049c04d83f2b92e7f26d4f65ec61c5829b6b945d0eac43bc4bb48b6d2b",
        None,  # pinned by SERIES_GOLDEN, whose default format is JSON
        "647d9834da251ab1a29c2efe9d4cf283b653d5fd7430bb98b1e107af5d272b18",
    ),
}
FORMAT_CASES = [
    (argv, fmt, digest)
    for argv, digests in OUTPUT_GOLDEN.items()
    for fmt, digest in zip(("csv", "json", "pretty"), digests)
    if digest is not None
]


@pytest.mark.parametrize(
    "argv, fmt, digest", FORMAT_CASES, ids=["%s-%s-%s" % (a[1], a[3], f) for a, f, _ in FORMAT_CASES])
def test_output_formats_are_golden(capsys, argv, fmt, digest):
    assert cli.main([*argv, "--format", fmt]) == 0
    assert _sha(capsys.readouterr().out) == digest


VERIFY_GOLDEN = [
    ((), "82e0740fc30c2723f898cd3b73570454490aaf92738520373a141aade2cab413"),
    (("--max-n", "4", "--m", "2", "--r", "3"),
     "5d5ad0c207b1858bab98bc54a464524734929d219362ea992e68715883ef250c"),
    (("--m", "4", "--m", "1", "--r", "7", "--r", "0"),
     "8aa01b27dee3a4de750f305b8ceeff2a74679b4559cba01fd00de6e8faaa2a24"),
    (("--r", "1/2", "--r", "5/3"),
     "83d791a85b4e340147cfdcb7e5ed9f7feeae6511e0e7835cfea121adc51d7b2c"),
]


@pytest.mark.parametrize("argv, digest", VERIFY_GOLDEN, ids=["default", "small", "unsorted-m", "rational-r"])
def test_verify_report_is_golden(capsys, argv, digest):
    # every report's bytes but its timing: grid sizes, point order, notes
    # and rendered counterexamples
    assert cli.main(["verify", "all", *argv, "--format", "json"]) == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    assert _sha(out) == digest


def test_whitney2_array_inverse_and_a_sequence_are_golden():
    arr = whitney2_array(2, 3, 37)
    assert _sha(_render(arr.inverse().rows())) == "5af0c94f9c5ec796cf75e27d7a9646e18ac1a9eb5c48729eee63d9b35af5b022"
    assert _sha(_render([arr.a_sequence()])) == "8cbcf493f6737dc64a52db69af7d2ac176342c7cdfa6a8b366b41d7fe0a901d1"
