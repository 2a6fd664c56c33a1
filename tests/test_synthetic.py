"""The synthetic corpora keep their bytes.

Tests, the benchmark and the acceptance checks all train and score on
these generators, so a refactor of them must not move one random draw.
The digests below are of the corpora as write_jsonl writes them.
"""

import hashlib

import pytest

from espunct.corpus import write_jsonl
from espunct.synthetic import transfer_benchmark

from generators import rule_corpus

_TRANSFER_DIGESTS = {
    0: {
        "es_train": "aed1e137594361873bb3d5ba742616a31ae36e19a151ca8cc3a79fbfe877f506",
        "es_test": "ab1a34843f665a2c93cf9a929b7e0e8d8e81c6055f0071dcef821524063d0063",
        "ldc": "ea930c6a2dba5e674cf9d92b26c4663c72cf2c54d828274f04e8f5cfdc17fbbc",
        "os_pool": "f101605a95647076926a4e3b6264ac5508c034c26ca4994577bfe715646d6f26",
        "en": "73de77b2d013d9178e8b74d31cfae098cdb56edd9ace70c212e889c86e2efe07",
    },
    7: {
        "es_train": "ac32fce27597b65eb0ef8abb12f93ae5f19bc1f45d80f1c9e915bff2be2a44da",
        "es_test": "f5ba693ce2e91ce83a5b5e6571c0b2d8f04baa56e1c369ad866bdb0b4a2efd24",
        "ldc": "750843f9839f53bf997e7f0df4a7a2f566103650614d6a15cfb7b4707776736e",
        "os_pool": "997d325b511465f4053dc21cee34f362538f78c33de10d5dd673ba51f8d86105",
        "en": "04924d792f6cfff4108b081384e5a7c88a12c37600431da6e39f5080c3b42f9e",
    },
}
_RULE_DIGEST = "dc5c6d3a1d3e9acd1f878f742269eeed4b6fc5f986dbbdddb4599990c58e7331"


def _digest(records, path):
    write_jsonl(records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(_TRANSFER_DIGESTS))
def test_transfer_benchmark_keeps_its_bytes(seed, tmp_path):
    bench = transfer_benchmark(seed)
    got = {
        name: _digest(getattr(bench, name), tmp_path / f"{name}.jsonl")
        for name in _TRANSFER_DIGESTS[seed]
    }
    assert got == _TRANSFER_DIGESTS[seed]


def test_rule_corpus_keeps_its_bytes(tmp_path):
    assert _digest(rule_corpus(500, seed=0), tmp_path / "rule.jsonl") == _RULE_DIGEST
