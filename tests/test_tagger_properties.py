"""Property tests for the model file boundary.

Any JSON value put at any field, row or weight of a valid model dict
must either be refused with ModelLoadError or give a model that serves
every request without an InternalError and saves, loads and saves again
to the same bytes.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from espunct.errors import ModelLoadError
from espunct.pipeline import handle_request_line
from espunct.synthetic import rule_corpus
from espunct.tagger import DEFAULT_LABEL_SET, TaggerModel, TrainConfig, train

SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)

_CORPUS = rule_corpus(30, seed=6)
_REQUESTS = [
    json.dumps({"id": str(k), "text": " ".join(u.tokens)}) for k, u in enumerate(_CORPUS[:3])
]

# Strings include lone surrogates, which a JSON escape such as \ud800
# decodes to.
_string = st.text(max_size=6) | st.sampled_from(["\ud800", "w0=\udcff"])
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**63])
    | st.floats()
    | _string,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_string, inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def model_dict():
    model = train(_CORPUS, TrainConfig(epochs=1, seed=0), data_tag="es")
    return json.loads(json.dumps(model.to_json_dict()))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    return base / "first.json", base / "second.json"


@st.composite
def _mutated(draw, obj):
    """obj with one JSON value put at a field, a row or a weight; only
    the containers on the way are copied."""
    out = dict(obj)
    value = draw(_json)
    where = draw(st.sampled_from(["field", "row", "weight"]))
    if where == "field":
        out[draw(st.sampled_from(sorted(obj)) | _string)] = value
        return out
    weights = out["weights"] = dict(obj["weights"])
    feature = draw(st.sampled_from(sorted(weights)) | _string)
    if where == "row":
        weights[feature] = value
    else:
        label = draw(st.sampled_from(DEFAULT_LABEL_SET) | _string)
        weights[feature] = {**weights.get(feature, {}), label: value}
    return out


def test_every_model_dict_loads_usable_or_is_refused(model_dict, files):
    first, second = files
    outcomes = {"refused": 0, "loaded": 0}

    @SETTINGS
    @given(_mutated(model_dict))
    def check(obj):
        try:
            model = TaggerModel.from_json_dict(obj)
        except ModelLoadError:
            outcomes["refused"] += 1
            return
        outcomes["loaded"] += 1
        for line in _REQUESTS:
            answer = json.loads(handle_request_line(model, line))
            assert answer.get("error") != "InternalError", answer
        model.save(first)
        TaggerModel.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    check()
    # A run that only refused, or only loaded, would check half the rule.
    assert min(outcomes.values()) >= 50, outcomes
