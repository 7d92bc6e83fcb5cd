"""Survey reports stay byte-identical to the one-table-per-flag engine.

Each entry maps (monoid spec, bound, survey option) to the exit status
and the SHA-256 digests of ``run_command``'s ``--json`` and text output,
as recorded from the engine that built a divisibility table per flag,
scanned every pair of elements and listed non-unique factorizations
through ``factorizations``.  The cases span refuting and holding
monoids up to the largest bounds the benchmark's survey workloads use.
"""

import hashlib

import pytest

from euclidlab.cli import run_command

GOLDEN = {
    ("quadratic 2", 40, "--three-properties"): (
        1, "c9aef125ef400926937a5196c065da37007ed45c3e018e6b8565d6b83ae0e471",
        "884e6dfcd98937f451073f1034d24e7efd99668cf1ae0ed80e6cec348bc11bb0"),
    ("quadratic 2", 40, "--transitivity"): (
        1, "14a6ff6f444045ba4bc699c260cdb9bdc9d18ed2a9b1131ad2b62eb669b8f529",
        "2ce0f046957cfddab5087b97fc3053c170f30dfe921c1863ee4783f4b2f59a39"),
    ("quadratic 2", 40, "--euclid-lemma"): (
        1, "2745bdd2ad9236bf039ebecee3b5bb2de8686cd25101b9991d59a889cd7b6bb9",
        "f2cfc89f9a86279825b4c6d8ca40e1ef0f49bd7b0b73246312c5e27e508b8a61"),
    ("quadratic 2", 48, "--three-properties"): (
        1, "244af2221a8e90a0f8441ef95381c8d4da5cc58bfa75587ede35e46fde1509e2",
        "459103c88412e31995a252d0f2e5ad467f67b843fc8f69c7cc4920b162b110b2"),
    ("quadratic 2", 48, "--transitivity"): (
        1, "c5c1291b8e12b8178c858622401f85f801b11a49fbce3266a11ee12a985c1742",
        "45e0ad4a8d47a84441e271083da71d7c159fa758ac6c23eecfe8671abde59b78"),
    ("quadratic 2", 48, "--euclid-lemma"): (
        1, "e241e6183a096d6fa136ac273e1e164a8432e498268b400572f0b58d26e9ed4c",
        "f2cfc89f9a86279825b4c6d8ca40e1ef0f49bd7b0b73246312c5e27e508b8a61"),
    ("quadratic 5", 75, "--three-properties"): (
        1, "7159e8676e38c5066b10d33746772b0677866a3d743420ebd02f6870401c547b",
        "7dac35808d3d26813025ff7a29ac86a31952001acd076e95a27fb91a347ff4d1"),
    ("quadratic 5", 75, "--transitivity"): (
        1, "3acbe117688294ff6653fd7092839e3e112b24e23f56b68b401372c3f35af333",
        "35db8949a18ef139dd64117e29f745ec2fa64c93cf9809842a0f70a0cdfd8a66"),
    ("quadratic 5", 75, "--euclid-lemma"): (
        1, "32d48c429a2648785f74ae33e8dfeddb598640adaad1f94f79b66c8ec926db8b",
        "f2cfc89f9a86279825b4c6d8ca40e1ef0f49bd7b0b73246312c5e27e508b8a61"),
    ("congruence 1 mod 3", 250, "--three-properties"): (
        1, "27229bdef8594b5cc62e3a15dc29bb842503700ed58a176058dc9db9ffad6e45",
        "3d396df9bf08fa5e844fc3e62db8b9aee5662724f5988b05f993cab6b37e21ed"),
    ("congruence 1 mod 3", 250, "--transitivity"): (
        1, "8583e033e1fb1c8371e0e280dd313dd0319dd0459cd572140bfae780257fd79e",
        "64d63f69981c0cdf1a920c89ef1a66a94c21dfcb2b75a19defd77da678d4402c"),
    ("congruence 1 mod 3", 250, "--euclid-lemma"): (
        1, "fb112d7fc71c058324c3d26deb6ef3baadbd6066b5789183eca559f57f895307",
        "f2cfc89f9a86279825b4c6d8ca40e1ef0f49bd7b0b73246312c5e27e508b8a61"),
    ("congruence 1 mod 3", 3200, "--three-properties"): (
        1, "04d873f6528d542e7337289360a0da7ea4bd94a1c15b1890df0fe8faa69eec36",
        "e83c1c6338eb655fc58d85e5457a01449f0d38eec4d881055e1c08390f004585"),
    ("congruence 1 mod 3", 3200, "--transitivity"): (
        1, "ce32ebfa7bbfc8d8aa5ee036d2ce8e625da90c0fcfa5453777906e4162de4883",
        "b149fc9bc9a8d52dd6d5e55b06ce14f32b21d2efd07051713e2e3cb629c62c4a"),
    ("congruence 1 mod 3", 3200, "--euclid-lemma"): (
        1, "7c2a51c0c5aedae7aab7e4220ec3bf1bf6627a73ba113ae2cd0646d091d66299",
        "f2cfc89f9a86279825b4c6d8ca40e1ef0f49bd7b0b73246312c5e27e508b8a61"),
    ("congruence 1 mod 5", 5500, "--three-properties"): (
        1, "ff4648cc18fe95cc7baa54d0e6456b44a65576426d66cf68e9d3234ae2562817",
        "5f5ea6a61d3f2cb56521744efdbcd3ae9856c3cfcea7b12b9795ee32924e4bfb"),
    ("congruence 1 mod 5", 5500, "--transitivity"): (
        1, "bf924268a67689dc9dd03b22c0b67f52220a97679edcb5dc8175c30f58aaf734",
        "a67553e6a6f832ca9b7a21c407005fdccb7faecc4a609866340da078ac105292"),
    ("congruence 1 mod 5", 5500, "--euclid-lemma"): (
        1, "ca89fc7d8f7e1228c2ab94bc328c3042d201ee5e64a6cfe86af4ad0de344bd0f",
        "f2cfc89f9a86279825b4c6d8ca40e1ef0f49bd7b0b73246312c5e27e508b8a61"),
    ("nat", 150, "--three-properties"): (
        0, "77cfae62c9aa665800382bad2ed9eb77651c49e22fc46f4a34b56230da14b75f",
        "9d7bae9ee4074cab69b9f8fc01d52613b81b3b0c97f88088c98f326835cf19be"),
    ("nat", 150, "--transitivity"): (
        0, "4666f1b2a51d8537ea8f6035c709b6ad02acea2f18c74acbedbeb0f083267699",
        "90d482905a2353ad0dbb6f0b7355b2d3f97c2dc6233790d5b349d5298dfcc65e"),
    ("nat", 150, "--euclid-lemma"): (
        0, "70058af09ddab460dda8a3badde1a5394feaae82937c503cec263ccae1dea322",
        "9fee7b59ac857ddbf66aea805d24711f48184c16996ac1d623b22bd7644abb36"),
    ("congruence 1 mod 2", 200, "--three-properties"): (
        0, "162cb27b58c5268a8a246a4e5cb38b4382092165339d75c1db1b5f2da71af405",
        "f4e55d9e414defe97d987458a3657f43c92886df83f0080fda1c730a933259ac"),
    ("congruence 1 mod 2", 200, "--transitivity"): (
        0, "8d93175361aa95ad0cb93f60321a3c659466f68874ad81c47eaebe1562b79ad9",
        "7502a4d2960e92905e2f0c4b989a1af925e2c0d2523014f41762746b0f6717bc"),
    ("congruence 1 mod 2", 200, "--euclid-lemma"): (
        0, "5f27bb8ca31b76690dbf77734389d83c21c41561c1afab1a969028347fcfbb5a",
        "24cd9e963eee7b024a3b9d13ba932546a3d8e30f223958d7f0267d609a5b664d"),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec,bound,survey", list(GOLDEN))
def test_survey_output_is_byte_identical(spec, bound, survey):
    code, json_digest, text_digest = GOLDEN[(spec, bound, survey)]
    argv = ["survey", survey, "--monoid", spec, "--bound", str(bound)]
    json_code, json_text = run_command(argv + ["--json"])
    text_code, text = run_command(argv)
    assert (json_code, digest(json_text)) == (code, json_digest)
    assert (text_code, digest(text)) == (code, text_digest)
